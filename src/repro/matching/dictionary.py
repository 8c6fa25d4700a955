"""The reference string → entity index: an in-memory dict-of-dicts.

:class:`SynonymDictionary` keeps the two indexes the online matcher reads
in plain Python containers:

* an exact-string index (normalized string → entries), and
* a token index (token → ids of the strings containing it) for the fuzzy
  fallback's shortlist, served as the same
  :class:`~repro.matching.index.TokenPostings` view the artifact returns,
  so the matcher has one path over both.

No production path builds one: publishers compile entries straight into a
:class:`~repro.serving.artifact.SynonymArtifact`.  Only the perf harness
(``benchmarks/perf``) still builds one; the tests hold it, like every
other index, to the brute-force reference in ``tests/oracle``.

Beyond the five :class:`~repro.matching.index.DictionaryIndex` calls it
keeps what being that harness's reference needs:

* construction — :meth:`~SynonymDictionary.add` and
  :meth:`~SynonymDictionary.from_mining_result` (the offline bench times
  the build as ``matching.dictionary_build_ms``);
* iteration over its :class:`~repro.matching.index.DictionaryEntry` rows,
  and ``len``: the harness compiles a dictionary by iterating it
  (:func:`~repro.serving.artifact.compile_dictionary`); and
* :meth:`~SynonymDictionary.lookup` (and ``in``), the exact bucket that
  ``entities_for`` reads; its own tests pin the duplicate rule through it.

Once the perf oracle moves onto the artifact, this module and its own
test file can go.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from repro.matching.index import DictionaryEntry, TokenPostings, entries_from_mining_result
from repro.text.normalize import normalize
from repro.text.tokenize import tokenize

if TYPE_CHECKING:  # the simulator stays out of the serving process
    from repro.core.types import MiningResult
    from repro.simulation.catalog import EntityCatalog

__all__ = ["SynonymDictionary"]


class SynonymDictionary:
    """String → entity dictionary with exact and token-level lookup."""

    def __init__(self, entries: Iterable[DictionaryEntry] = ()) -> None:
        self._entries: list[DictionaryEntry] = []
        self._exact: dict[str, list[DictionaryEntry]] = defaultdict(list)
        # Each distinct text gets a string id on first add: its position in
        # _texts.  The token index and the word counts are keyed by it.
        self._texts: list[str] = []
        self._word_counts: dict[int, int] = {}
        self._token_index: dict[str, set[int]] = defaultdict(set)
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
        if text not in self._exact:
            sid = len(self._texts)
            self._texts.append(text)
            words = set(tokenize(text, normalized=True))
            self._word_counts[sid] = len(words)
            for token in words:
                self._token_index[token].add(sid)
        self._exact[text].append(normalized_entry)

    @classmethod
    def from_mining_result(
        cls, result: MiningResult, catalog: EntityCatalog
    ) -> "SynonymDictionary":
        """The reference dictionary for a mining result and its catalog."""
        return cls(entries_from_mining_result(result, catalog))

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

    def has_token(self, token: str) -> bool:
        """Whether *token* is a word of some dictionary string."""
        return token in self._token_index

    def strings_containing_token(self, token: str) -> TokenPostings:
        """Dictionary strings containing *token* (fuzzy-fallback shortlist).

        A :class:`~repro.matching.index.TokenPostings` view over the ids of
        those strings, sorted by string as the artifact's postings are.
        """
        decode = self._texts.__getitem__
        sids = sorted(self._token_index.get(token, ()), key=decode)
        return TokenPostings(sids, decode, self.word_counts)

    def word_counts(self) -> Mapping[int, int]:
        """String id → number of distinct words (kept as strings are added)."""
        return self._word_counts

    @property
    def max_entry_tokens(self) -> int:
        """Length (in tokens) of the longest dictionary string."""
        if not self._entries:
            return 0
        return max(len(tokenize(entry.text, normalized=True)) for entry in self._entries)
