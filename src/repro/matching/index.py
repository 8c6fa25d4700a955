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
production implementation of :class:`DictionaryIndex`: the five calls the
online readers (segmenter, matcher and resolver) make, and nothing else.

* ``entities_for``, the **exact index**: the segmenter's span probes and
  the entities of the matcher's fuzzy winner;
* ``has_token``, the **token test**: the segmenter probes only spans
  whose every word the index has;
* ``strings_containing_token``, the **token shortlist** for the fuzzy
  fallback: a :class:`TokenPostings` view whose string ids the matcher
  pools and filters before it decodes a string;
* ``strings_for_entity``: an entity's strings, for the resolver's context
  overlap (and its click prior when it sums a live log); and
* ``max_entry_tokens``, the segmenter's span-length bound.

:class:`~repro.matching.dictionary.SynonymDictionary` implements it too, as
the in-memory index the perf oracle answers from.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Set as AbstractSet
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Iterator,
    Mapping,
    Protocol,
    Sequence,
    runtime_checkable,
)

if TYPE_CHECKING:  # the simulator stays out of the serving process
    from repro.core.types import MiningResult
    from repro.simulation.catalog import EntityCatalog

__all__ = [
    "DictionaryEntry",
    "DictionaryIndex",
    "TokenPostings",
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


class TokenPostings(AbstractSet[str]):
    """The dictionary strings containing one token: a read-only set view.

    An index hands out its postings for a token as string ids in the byte
    order of their strings (the artifact's ``token.postings`` slice, with
    no copy), together with two readers over the same id space: *decode*
    (id → string) and *word_counts* (a callable returning id → the number
    of distinct words of that string, for every string of the index).
    Only what a caller touches costs anything:

    * ``len`` reads the slice length and decodes nothing;
    * ``in`` bisects the byte-sorted ids, decoding only the probed ones;
    * iteration decodes every member;
    * :attr:`ids` is the members' ids as a ``frozenset``, built in C from
      the slice without decoding anything.

    Set comparisons (``==``, ``<=``, ``&`` …) come from
    :class:`collections.abc.Set` and compare strings.
    """

    __slots__ = ("_sids", "decode", "word_counts")

    def __init__(
        self,
        sids: Sequence[int],
        decode: Callable[[int], str],
        word_counts: Callable[[], Mapping[int, int]],
    ) -> None:
        self._sids = sids
        self.decode = decode
        self.word_counts = word_counts

    @property
    def ids(self) -> frozenset[int]:
        """The members' string ids; nothing is decoded."""
        return frozenset(self._sids)

    def __len__(self) -> int:
        return len(self._sids)

    def __iter__(self) -> Iterator[str]:
        return map(self.decode, self._sids)

    def __contains__(self, text: object) -> bool:
        if not isinstance(text, str):
            return False
        sids, decode = self._sids, self.decode
        slot = bisect_left(sids, text, key=decode)
        return slot < len(sids) and decode(sids[slot]) == text


@runtime_checkable
class DictionaryIndex(Protocol):
    """What the online readers call on an index: exactly these five members.

    :class:`~repro.matching.segmentation.QuerySegmenter` calls
    ``entities_for``, ``has_token`` and ``max_entry_tokens``;
    :class:`~repro.matching.matcher.QueryMatcher` adds
    ``strings_containing_token`` (and ``entities_for`` of its fuzzy
    winner); and
    :class:`~repro.matching.resolver.MatchResolver` calls
    ``strings_for_entity``.
    """

    def entities_for(self, text: str) -> set[str]:
        """Entity ids the exact string refers to (empty set when unknown)."""
        ...

    def has_token(self, token: str) -> bool:
        """Whether *token* is a word of some dictionary string."""
        ...

    def strings_containing_token(self, token: str) -> TokenPostings:
        """Dictionary strings containing *token* (fuzzy-fallback shortlist).

        A :class:`TokenPostings` view (empty when the index lacks the
        token): the matcher reads its :attr:`~TokenPostings.ids` and the
        index's word counts and decodes only strings that pass its
        containment filter.  The token is taken raw (already normalized).
        """
        ...

    def strings_for_entity(self, entity_id: str) -> list[str]:
        """Every dictionary string referring to *entity_id*."""
        ...

    @property
    def max_entry_tokens(self) -> int:
        """Length (in tokens) of the longest dictionary string."""
        ...
