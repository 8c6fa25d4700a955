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
   works on string ids: it pools only the ids that can pass the containment
   filter — those in two query tokens' postings, or in one and with few
   enough distinct words that one shared token suffices — with a few set
   operations over id postings memoized per artifact generation, decides
   containment by count against the index's per-string word counts, and
   decodes only the survivors; it then bounds them by length and cuts the
   edit distance off at the threshold.  No dictionary string is split on
   this path.  Ties go to the lexicographically smallest string (see
   :meth:`QueryMatcher._fuzzy_match`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import compress
from typing import Callable, Mapping, NamedTuple

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


class _IdSpace(NamedTuple):
    """An index's string ids as the fuzzy fallback reads them."""

    word_counts: Mapping[int, int]  # string id -> |W(c)|, its distinct words
    admitted: tuple[frozenset[int], ...]  # h -> the |W(c)| that h shared words pass
    lone: frozenset[int]  # the ids one shared word lets pass
    decode: Callable[[int], str]


class QueryMatcher:
    """Matches live Web queries against a :class:`DictionaryIndex`.

    Every index over the same entries gives the same answer: the outcome
    never depends on the order an index (or ``PYTHONHASHSEED``) happens to
    list candidates in.  ``tests/oracle`` holds every representation to a
    brute-force reference.

    The fuzzy fallback reads each known token's shortlist once per matcher
    through ``strings_containing_token`` and keeps only its string ids, so
    a matcher holds ids and word counts, never a dictionary string it did
    not need; build one matcher per index generation.
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
        # token -> (ids of its postings, the ones one shared token lets
        # through).  Only tokens the index knows are kept, so it is bounded
        # by the index's vocabulary.  _id_space is taken from the index
        # once (see _read_postings).  Both live as long as the matcher,
        # which the serving layer rebuilds with every artifact generation;
        # each value is complete before it is stored, and threads that miss
        # together store equal values, so neither needs a lock.
        self._token_ids: dict[str, tuple[frozenset[int], frozenset[int]]] = {}
        self._id_space: _IdSpace | None = None

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
        (``Q``: the query's distinct tokens).  ``c`` is in the postings of
        exactly the tokens of ``W(c)``, so ``|W(c) ∩ Q|`` is the number of
        query tokens whose postings hold ``c`` — its *hits* — and the filter
        is decided on string ids, by count (the T-occurrence filter of Li,
        Lu and Lu, ICDE 2008), before any string is decoded:

        1. *Lists.*  A passing string shares a token with the query, so it
           is in some query token's postings.  A token the index lacks has
           no postings and is skipped; each known token's postings are read
           from the index once per matcher as a ``frozenset`` of ids (see
           :meth:`_read_postings`).
        2. *Count filter.*  A string in one list passes iff ``1 / |W(c)|``
           reaches the threshold: that token's *lone* members, memoized with
           its ids.  The rest must be in at least two lists.  Taking the
           lists shortest first, the ids in at least ``h`` lists are
           collected level by level with set intersections, and the longest
           list is only probed, never copied.  An id in at least ``h`` lists
           passes iff ``h / |W(c)|`` reaches the threshold for some such
           ``h``; that is looked up per level, in C, against the index's
           word counts, so no string is decoded or split.
        3. *Length bound.*  Only now is a survivor decoded.  Edit distance is
           at least the length difference, so a survivor whose length alone
           puts it below ``fuzzy_similarity_threshold`` is dropped without
           being compared.
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
        similarity_threshold = self.fuzzy_similarity_threshold
        memo = self._token_ids
        # match() segments the query first, which resolves every query token
        # against the index: a token the segmenter does not know has no
        # postings, so it is skipped without asking the index again.
        known = self.segmenter._known
        lists: list[tuple[frozenset[int], frozenset[int]]] = []
        for token in query_tokens:
            postings = memo.get(token)
            if postings is None:
                if token not in known:
                    continue
                postings = memo[token] = self._read_postings(token)
            lists.append(postings)
        if not lists:
            return None
        lists.sort(key=_list_length)
        # levels[h]: the ids in more than h of the lists taken so far.
        levels: list[set[int]] = [set()]
        survivors: set[int] = set()
        for taken, (ids, lone) in enumerate(lists, start=1):
            survivors |= lone
            for h in range(len(levels) - 1, -1, -1):
                found = levels[h] & ids
                if found:
                    if h + 1 == len(levels):
                        levels.append(found)
                    else:
                        levels[h + 1] |= found
            if taken < len(lists):  # the longest list is only probed
                levels[0] |= ids
        # Set by the _read_postings call that memoized the first list.
        word_counts, admitted, _, decode = self._id_space  # type: ignore[misc]
        for h, at_least in enumerate(levels[1:], start=2):
            passes = map(admitted[h].__contains__, map(word_counts.__getitem__, at_least))
            survivors.update(compress(at_least, passes))
        query_length = len(normalized_query)
        best: tuple[str, float] | None = None
        for candidate in map(decode, survivors):
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

    def _read_postings(self, token: str) -> tuple[frozenset[int], frozenset[int]]:
        """*token*'s postings as ids, and the ones one shared token lets pass.

        The shortlist goes through ``strings_containing_token`` (the method
        the perf harness times); only its ids are kept.  The first call also
        takes the index's :class:`_IdSpace`.  Nothing is decoded or split.
        """
        postings = self.dictionary.strings_containing_token(token)
        space = self._id_space
        if space is None:
            counts = postings.word_counts()
            threshold = self.fuzzy_containment_threshold
            values = set(counts.values())
            admitted = tuple(
                frozenset(n for n in values if h / n >= threshold)
                for h in range(max(values) + 1)
            )
            lone = frozenset(compress(counts, map(admitted[1].__contains__, counts.values())))
            space = self._id_space = _IdSpace(counts, admitted, lone, postings.decode)
        ids = postings.ids
        return ids, ids & space.lone


def _list_length(postings: tuple[frozenset[int], frozenset[int]]) -> int:
    return len(postings[0])
