"""Dictionary entries, the rules that build them, and the lookup interface.

A dictionary entry is one (string, entity) pair.  This module is the one
place that knows how mined synonyms become entries:

* :func:`entries_from_mining_result` — a :class:`~repro.core.types.MiningResult`
  against a catalog: each canonical string maps to its catalog entity, and
  its selected synonyms inherit that entity with their click volume as the
  weight;
* :func:`entries_from_mined_rows` — ``(canonical, synonym, clicks)`` rows as
  ``repro mine`` writes them (:func:`mined_row` parses one), where no
  catalog is at hand and the canonical string doubles as the entity id.

Every publisher feeds these entries to
:func:`~repro.serving.artifact.dedupe_entries` and compiles them, so the
compiled :class:`~repro.serving.artifact.SynonymArtifact` is the one
production implementation of :class:`DictionaryIndex`, the surface the
online path consumes:

* an **exact index** (``lookup`` / ``entities_for`` / ``__contains__``),
* a **token test** (``has_token``): the segmenter probes only spans whose
  every word the index has,
* a **token shortlist** for the fuzzy fallback
  (``strings_containing_token``),
* **entry iteration** (``__iter__`` / ``__len__`` /
  ``strings_for_entity``) for offline consumers such as the resolver's
  click-prior, and
* ``max_entry_tokens``, the segmenter's span-length bound.

:class:`~repro.matching.dictionary.SynonymDictionary` implements it too, as
the in-memory index the perf oracle answers from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Protocol, runtime_checkable

if TYPE_CHECKING:  # the simulator stays out of the serving process
    from repro.core.types import MiningResult
    from repro.simulation.catalog import EntityCatalog

__all__ = [
    "DictionaryEntry",
    "DictionaryIndex",
    "entries_from_mining_result",
    "entries_from_mined_rows",
    "mined_row",
]


@dataclass(frozen=True)
class DictionaryEntry:
    """One dictionary string and the entity it refers to.

    ``source`` records where the string came from: ``"canonical"`` for the
    original data value, ``"mined"`` for a synonym produced by the miner, or
    ``"manual"`` for entries added by hand.
    """

    text: str
    entity_id: str
    source: str = "mined"
    weight: float = 1.0


def entries_from_mining_result(
    result: MiningResult, catalog: EntityCatalog
) -> Iterator[DictionaryEntry]:
    """Entries for a mining result: each canonical, then its selected synonyms.

    The catalog maps canonical strings to entity ids; a canonical the
    catalog does not list contributes nothing.
    """
    by_name = catalog.by_canonical_name()
    for entry in result:
        entity = by_name.get(entry.canonical)
        if entity is None:
            continue
        yield DictionaryEntry(entry.canonical, entity.entity_id, source="canonical")
        for candidate in entry.selected:
            yield DictionaryEntry(
                candidate.query, entity.entity_id, source="mined",
                weight=float(candidate.clicks),
            )


def mined_row(
    *, canonical: str, synonym: str, clicks: float = 1, **_scores: object
) -> tuple[str, str, float]:
    """One ``repro mine`` output row (its score fields ignored) as a tuple."""
    return canonical, synonym, float(clicks)


def entries_from_mined_rows(
    rows: Iterable[tuple[str, str, float]],
) -> Iterator[DictionaryEntry]:
    """Entries for ``(canonical, synonym, clicks)`` rows.

    Without a catalog the canonical string is also the entity id.  The
    canonical is emitted once per row; duplicates collapse when the entries
    are deduplicated.
    """
    for canonical, synonym, clicks in rows:
        yield DictionaryEntry(canonical, canonical, source="canonical")
        yield DictionaryEntry(synonym, canonical, source="mined", weight=clicks)


@runtime_checkable
class DictionaryIndex(Protocol):
    """String → entity lookup surface consumed by the online matchers."""

    def lookup(self, text: str) -> list[DictionaryEntry]:
        """Exact lookup of a (raw or normalized) string."""
        ...

    def entities_for(self, text: str) -> set[str]:
        """Entity ids the exact string refers to (empty set when unknown)."""
        ...

    def has_token(self, token: str) -> bool:
        """Whether *token* is a word of some dictionary string."""
        ...

    def strings_containing_token(self, token: str) -> set[str]:
        """Dictionary strings containing *token* (fuzzy-fallback shortlist)."""
        ...

    def strings_for_entity(self, entity_id: str) -> list[str]:
        """Every dictionary string referring to *entity_id*."""
        ...

    @property
    def max_entry_tokens(self) -> int:
        """Length (in tokens) of the longest dictionary string."""
        ...

    def __contains__(self, text: str) -> bool: ...

    def __len__(self) -> int: ...

    def __iter__(self) -> Iterator[DictionaryEntry]: ...
