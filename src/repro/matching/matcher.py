"""The end-to-end online query matcher.

:class:`QueryMatcher` answers the question the paper opens with: *does this
Web query (approximately) reference one of our structured entities, and if
so which one?*  It reads a :class:`~repro.matching.index.DictionaryIndex` —
in production the compiled :class:`~repro.serving.artifact.SynonymArtifact`
— and works in two stages:

1. **Exact-dictionary segmentation** — find the longest contiguous span of
   the query that exactly matches a dictionary string (canonical name or
   mined synonym).  This is the fast path and the one the paper's coverage
   metric counts.
2. **Fuzzy fallback** (optional) — if no span matches exactly, shortlist
   dictionary strings sharing a token with the query and accept the best
   one above an edit-distance-based similarity threshold.  This catches
   unseen misspellings without re-running the offline miner.  The fallback
   pools only the strings that can pass the containment filter — those in
   two query tokens' postings, or in one and short enough that one shared
   token suffices — with a few set operations over postings memoized per
   artifact generation, then bounds the pool by length and cuts the edit
   distance off at the threshold; ties go to the lexicographically smallest
   string (see :meth:`QueryMatcher._fuzzy_match`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.matching.index import DictionaryIndex
from repro.matching.segmentation import QuerySegmenter, Segment
from repro.text.normalize import normalize
from repro.text.similarity import levenshtein_distance
from repro.text.tokenize import token_set

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

    Every index over the same entries gives the same answer: the outcome
    never depends on the order an index (or ``PYTHONHASHSEED``) happens to
    list candidates in.  ``tests/oracle`` holds every representation to a
    brute-force reference.
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
        # token -> (its postings, the ones one shared token lets through).
        # Only tokens the index knows are kept, so it is bounded by the
        # index's vocabulary; it lives as long as the matcher, which the
        # serving layer rebuilds with every artifact generation.  Threads
        # that miss on one token together store equal values, so it needs
        # no lock.
        self._postings: dict[str, tuple[frozenset[str], frozenset[str]]] = {}

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

        A string ``c`` with distinct words ``W(c)`` passes the containment
        filter iff ``|W(c) ∩ Q| / |W(c)| >= fuzzy_containment_threshold``
        (``Q``: the query's distinct tokens), so the Python loop only sees
        what can pass:

        1. *Pool.*  A passing string shares a token with the query, so it is
           in some query token's postings; it is either in at least two of
           them, or it shares one token and ``1 / |W(c)|`` alone reaches the
           threshold (that token's *lone* members).  A token the index
           lacks has no postings and is skipped; each known token's
           postings and lone members are read from the index once per
           matcher and memoized; one pass of set operations
           (``pool |= lone; pool |= found & seen; seen |= found``) builds a
           pool that is a superset of the strings that pass.
        2. *Containment.*  Each pooled string's own words decide the filter
           exactly as above.
        3. *Length bound.*  Edit distance is at least the length difference,
           so a survivor whose length alone puts it below
           ``fuzzy_similarity_threshold`` is dropped without being compared.
        4. *Cut-off distance.*  The rest get an edit distance that gives up
           beyond the largest distance the threshold could admit; the
           threshold itself is then applied to the similarity exactly as
           :func:`~repro.text.similarity.levenshtein_similarity` computes it.

        The best similarity wins; equally similar strings are ordered
        lexicographically and the smallest wins, so the answer does not
        depend on set iteration order (``PYTHONHASHSEED``) or on which index
        implementation produced the shortlist.
        """
        query_tokens = token_set(normalized_query, normalized=True)
        containment_threshold = self.fuzzy_containment_threshold
        similarity_threshold = self.fuzzy_similarity_threshold
        postings = self._postings
        # match() segments the query first, which resolves every query token
        # against the index: a token the segmenter does not know has no
        # postings, so it is skipped without asking the index again.
        known = self.segmenter._known
        pool: set[str] = set()
        seen: set[str] = set()
        for token in query_tokens:
            if token not in postings:
                if token not in known:
                    continue
                shortlist = self.dictionary.strings_containing_token(token)
                lone = frozenset(
                    c
                    for c in shortlist
                    if 1 / len(token_set(c, normalized=True)) >= containment_threshold
                )
                postings[token] = (frozenset(shortlist), lone)
            found, lone = postings[token]
            pool |= lone
            pool |= found & seen
            seen |= found
        query_length = len(normalized_query)
        best: tuple[str, float] | None = None
        for candidate in pool:
            words = token_set(candidate, normalized=True)
            if len(words & query_tokens) / len(words) < containment_threshold:
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
