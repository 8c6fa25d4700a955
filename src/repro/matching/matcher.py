"""The end-to-end online query matcher.

:class:`QueryMatcher` answers the question the paper opens with: *does this
Web query (approximately) reference one of our structured entities, and if
so which one?*  It works in two stages:

1. **Exact-dictionary segmentation** — find the longest contiguous span of
   the query that exactly matches a dictionary string (canonical name or
   mined synonym).  This is the fast path and the one the paper's coverage
   metric counts.
2. **Fuzzy fallback** (optional) — if no span matches exactly, shortlist
   dictionary strings sharing a token with the query and accept the best
   one above an edit-distance-based similarity threshold.  This catches
   unseen misspellings without re-running the offline miner.  The fallback
   counts shared tokens per shortlisted string while it reads the token
   postings, bounds candidates by length, and cuts the edit distance off at
   the threshold, so its cost follows the postings it touches; ties go to
   the lexicographically smallest string
   (see :meth:`QueryMatcher._fuzzy_match`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum

from repro.matching.index import DictionaryIndex
from repro.matching.segmentation import QuerySegmenter, Segment
from repro.text.normalize import normalize
from repro.text.similarity import levenshtein_distance
from repro.text.tokenize import tokenize

__all__ = ["MatchOutcome", "EntityMatch", "QueryMatcher"]


class MatchOutcome(Enum):
    """How (or whether) a query was matched."""

    EXACT = "exact"
    FUZZY = "fuzzy"
    NO_MATCH = "no_match"


@dataclass(frozen=True)
class EntityMatch:
    """The result of matching one live query.

    ``entity_ids`` may contain more than one id when the matched string is
    ambiguous in the dictionary; downstream applications disambiguate with
    context (or simply take all of them, as a search result page would).
    """

    query: str
    outcome: MatchOutcome
    entity_ids: frozenset[str] = frozenset()
    matched_text: str = ""
    remainder: str = ""
    score: float = 0.0

    @property
    def matched(self) -> bool:
        """True when the query resolved to at least one entity."""
        return self.outcome is not MatchOutcome.NO_MATCH and bool(self.entity_ids)


class QueryMatcher:
    """Matches live Web queries against a :class:`DictionaryIndex`.

    Any index implementation works — the in-memory
    :class:`~repro.matching.dictionary.SynonymDictionary` or a compiled
    :class:`~repro.serving.artifact.SynonymArtifact` — and every one gives
    the same answer for the same entries: the outcome never depends on the
    order an index (or ``PYTHONHASHSEED``) happens to list candidates in.
    """

    def __init__(
        self,
        dictionary: DictionaryIndex,
        *,
        enable_fuzzy: bool = True,
        fuzzy_similarity_threshold: float = 0.84,
        fuzzy_containment_threshold: float = 0.6,
    ) -> None:
        if not 0.0 <= fuzzy_similarity_threshold <= 1.0:
            raise ValueError("fuzzy_similarity_threshold must be in [0, 1]")
        if not 0.0 <= fuzzy_containment_threshold <= 1.0:
            raise ValueError("fuzzy_containment_threshold must be in [0, 1]")
        self.dictionary = dictionary
        self.segmenter = QuerySegmenter(dictionary)
        self.enable_fuzzy = enable_fuzzy
        self.fuzzy_similarity_threshold = fuzzy_similarity_threshold
        self.fuzzy_containment_threshold = fuzzy_containment_threshold
        # Memo of a pure function of the string, bounded by the dictionary's
        # strings; it lives as long as the matcher, which the serving layer
        # rebuilds with every artifact generation.
        self._token_counts = _DistinctTokenCounts()

    # ------------------------------------------------------------------ #
    # Matching
    # ------------------------------------------------------------------ #

    def match(self, query: str) -> EntityMatch:
        """Match one query; never raises on unmatched input."""
        normalized = normalize(query)
        if not normalized:
            return EntityMatch(query=query, outcome=MatchOutcome.NO_MATCH)

        segment = self.segmenter.best_segment(normalized)
        if segment is not None:
            return self._from_segment(query, segment)

        if self.enable_fuzzy:
            fuzzy = self._fuzzy_match(normalized)
            if fuzzy is not None:
                return EntityMatch(
                    query=query,
                    outcome=MatchOutcome.FUZZY,
                    entity_ids=frozenset(self.dictionary.entities_for(fuzzy[0])),
                    matched_text=fuzzy[0],
                    remainder="",
                    score=fuzzy[1],
                )
        return EntityMatch(query=query, outcome=MatchOutcome.NO_MATCH)

    def match_all(self, queries: list[str]) -> list[EntityMatch]:
        """Match a batch of queries (order preserved)."""
        return [self.match(query) for query in queries]

    def coverage(self, queries: list[str]) -> float:
        """Fraction of *queries* that resolve to at least one entity."""
        if not queries:
            return 0.0
        matched = sum(1 for match in self.match_all(queries) if match.matched)
        return matched / len(queries)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _from_segment(self, original_query: str, segment: Segment) -> EntityMatch:
        return EntityMatch(
            query=original_query,
            outcome=MatchOutcome.EXACT,
            entity_ids=segment.entity_ids,
            matched_text=segment.mention,
            remainder=segment.remainder,
            score=1.0,
        )

    def _fuzzy_match(self, normalized_query: str) -> tuple[str, float] | None:
        """Best fuzzy dictionary string for the query, or ``None``.

        Work is proportional to the postings touched, not to the shortlist
        times a tokenization:

        1. *Containment by counting.*  The token index is probed once per
           distinct query token and every returned string gets one count,
           so ``count / distinct_tokens(string)`` is the share of the
           string's tokens the query contains; strings below
           ``fuzzy_containment_threshold`` are dropped.  The denominator is
           a pure function of the string, memoized on this matcher.
        2. *Length bound.*  Edit distance is at least the length difference,
           so a survivor whose length alone puts it below
           ``fuzzy_similarity_threshold`` is dropped without being compared.
        3. *Cut-off distance.*  The rest get an edit distance that gives up
           beyond the largest distance the threshold could admit; the
           threshold itself is then applied to the similarity exactly as
           :func:`~repro.text.similarity.levenshtein_similarity` computes it.

        The best similarity wins; equally similar strings are ordered
        lexicographically and the smallest wins, so the answer does not
        depend on set iteration order (``PYTHONHASHSEED``) or on which index
        implementation produced the shortlist.
        """
        shared: Counter[str] = Counter()
        for token in dict.fromkeys(tokenize(normalized_query, normalized=True)):
            shared.update(self.dictionary.strings_containing_token(token))
        token_counts = self._token_counts
        containment_threshold = self.fuzzy_containment_threshold
        similarity_threshold = self.fuzzy_similarity_threshold
        query_length = len(normalized_query)
        best: tuple[str, float] | None = None
        for candidate, count in shared.items():
            if count / token_counts[candidate] < containment_threshold:
                continue
            length_gap = abs(query_length - len(candidate))
            longest = max(query_length, len(candidate))
            if 1.0 - length_gap / longest < similarity_threshold:
                continue
            # One more than the real bound, so rounding in this product can
            # never cut off a distance the comparison below would accept.
            max_edits = int((1.0 - similarity_threshold) * longest) + 1
            distance = levenshtein_distance(normalized_query, candidate, max_edits)
            similarity = 1.0 - distance / longest
            if similarity < similarity_threshold:
                continue
            if (
                best is None
                or similarity > best[1]
                or (similarity == best[1] and candidate < best[0])
            ):
                best = (candidate, similarity)
        return best


class _DistinctTokenCounts(dict[str, int]):
    """``string -> number of distinct tokens``, computed on first use."""

    def __missing__(self, text: str) -> int:
        count = self[text] = len(set(tokenize(text, normalized=True)))
        return count
