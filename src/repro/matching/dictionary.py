"""The expanded synonym dictionary: string → entity lookup.

The offline miner produces, for every canonical data value, a set of
synonymous strings.  The dictionary flattens that into the two indexes the
online matcher needs:

* an exact-string index (normalized string → entity ids), and
* a token index (token → candidate strings containing it) used by the
  fuzzy fallback to shortlist entries without scanning the whole
  dictionary.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.core.types import MiningResult
from repro.text.normalize import normalize
from repro.text.tokenize import tokenize

if TYPE_CHECKING:  # the simulator stays out of the serving process
    from repro.simulation.catalog import EntityCatalog

__all__ = ["DictionaryEntry", "SynonymDictionary"]


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


class SynonymDictionary:
    """String → entity dictionary with exact and token-level lookup."""

    def __init__(self, entries: Iterable[DictionaryEntry] = ()) -> None:
        self._entries: list[DictionaryEntry] = []
        self._exact: dict[str, list[DictionaryEntry]] = defaultdict(list)
        self._token_index: dict[str, set[str]] = defaultdict(set)
        # (normalized text, entity id) → position in _entries, so duplicate
        # adds resolve in O(1) instead of scanning the exact bucket.
        self._positions: dict[tuple[str, str], int] = {}
        for entry in entries:
            self.add(entry)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def add(self, entry: DictionaryEntry) -> None:
        """Add one entry (text is normalized; duplicates keep the max weight).

        Adding the same normalized text twice for one entity (e.g. the
        canonical value and a mined synonym that normalizes to it) keeps a
        single entry carrying the larger weight, so click-volume evidence is
        never silently dropped and the fuzzy shortlist sees each (string,
        entity) pair exactly once.
        """
        text = normalize(entry.text)
        if not text:
            return
        normalized_entry = DictionaryEntry(text, entry.entity_id, entry.source, entry.weight)
        key = (text, entry.entity_id)
        position = self._positions.get(key)
        if position is not None:
            existing = self._entries[position]
            if normalized_entry.weight > existing.weight:
                self._entries[position] = normalized_entry
                bucket = self._exact[text]
                bucket[bucket.index(existing)] = normalized_entry
            return
        self._positions[key] = len(self._entries)
        self._entries.append(normalized_entry)
        self._exact[text].append(normalized_entry)
        for token in tokenize(text, normalized=True):
            self._token_index[token].add(text)

    @classmethod
    def from_mining_result(
        cls,
        result: MiningResult,
        catalog: EntityCatalog,
        *,
        include_canonical: bool = True,
    ) -> "SynonymDictionary":
        """Build the dictionary from a mining result and the catalog.

        The catalog provides the canonical name → entity id mapping; mined
        synonyms inherit the entity of the canonical string they expand.
        """
        by_name = catalog.by_canonical_name()
        dictionary = cls()
        for entry in result:
            entity = by_name.get(entry.canonical)
            if entity is None:
                continue
            if include_canonical:
                dictionary.add(
                    DictionaryEntry(entry.canonical, entity.entity_id, source="canonical")
                )
            for candidate in entry.selected:
                dictionary.add(
                    DictionaryEntry(
                        candidate.query,
                        entity.entity_id,
                        source="mined",
                        weight=float(candidate.clicks),
                    )
                )
        return dictionary

    @classmethod
    def from_catalog(cls, catalog: EntityCatalog) -> "SynonymDictionary":
        """Canonical-names-only dictionary (the pre-expansion baseline)."""
        dictionary = cls()
        for entity in catalog:
            dictionary.add(
                DictionaryEntry(entity.canonical_name, entity.entity_id, source="canonical")
            )
        return dictionary

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    def lookup(self, text: str) -> list[DictionaryEntry]:
        """Exact lookup of a (raw or normalized) string."""
        return list(self._exact.get(normalize(text), ()))

    def entities_for(self, text: str) -> set[str]:
        """Entity ids the exact string refers to (empty set when unknown)."""
        return {entry.entity_id for entry in self.lookup(text)}

    def __contains__(self, text: str) -> bool:
        return normalize(text) in self._exact

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[DictionaryEntry]:
        return iter(self._entries)

    def strings_for_entity(self, entity_id: str) -> list[str]:
        """Every dictionary string referring to *entity_id*."""
        return [entry.text for entry in self._entries if entry.entity_id == entity_id]

    def strings_containing_token(self, token: str) -> set[str]:
        """Dictionary strings containing *token* (fuzzy-fallback shortlist)."""
        return set(self._token_index.get(token, ()))

    @property
    def max_entry_tokens(self) -> int:
        """Length (in tokens) of the longest dictionary string."""
        if not self._entries:
            return 0
        return max(len(tokenize(entry.text, normalized=True)) for entry in self._entries)
