"""Reference implementations the optimised online path is compared against.

:func:`reference_match` is the fuzzy fallback as it was before the
posting-count rewrite — union the per-token shortlists, re-tokenize every
candidate, filter on :func:`token_containment`, run a full edit distance —
with the deterministic ``(-similarity, candidate)`` tie-break.  It is slow
on purpose and lives in the tests only.
"""

from repro.matching.index import DictionaryIndex
from repro.matching.matcher import EntityMatch, MatchOutcome
from repro.matching.segmentation import QuerySegmenter
from repro.text.normalize import normalize
from repro.text.similarity import token_containment
from repro.text.tokenize import tokenize


def classic_levenshtein_distance(a: str, b: str) -> int:
    """Textbook two-row edit distance: no band, no cut-off, no trimming."""
    previous = list(range(len(b) + 1))
    for i, ch_a in enumerate(a, start=1):
        current = [i]
        for j, ch_b in enumerate(b, start=1):
            cost = 0 if ch_a == ch_b else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return previous[-1]


def reference_match(
    dictionary: DictionaryIndex,
    query: str,
    *,
    similarity_threshold: float = 0.84,
    containment_threshold: float = 0.6,
) -> EntityMatch:
    normalized = normalize(query)
    if not normalized:
        return EntityMatch(query=query, outcome=MatchOutcome.NO_MATCH)
    segments = QuerySegmenter(dictionary).segments(normalized)
    if segments:
        segment = min(segments, key=lambda found: (-found.token_length, found.start))
        return EntityMatch(
            query, MatchOutcome.EXACT, segment.entity_ids, segment.mention, segment.remainder, 1.0
        )
    query_tokens = tokenize(normalized, normalized=True)
    shortlist: set[str] = set()
    for token in query_tokens:
        shortlist.update(dictionary.strings_containing_token(token))
    ranked = []
    for candidate in shortlist:
        candidate_tokens = tokenize(candidate, normalized=True)
        if token_containment(candidate_tokens, query_tokens) < containment_threshold:
            continue
        longest = max(len(normalized), len(candidate))
        similarity = 1.0 - classic_levenshtein_distance(normalized, candidate) / longest
        if similarity >= similarity_threshold:
            ranked.append((-similarity, candidate))
    if not ranked:
        return EntityMatch(query=query, outcome=MatchOutcome.NO_MATCH)
    negated, best = min(ranked)
    return EntityMatch(
        query, MatchOutcome.FUZZY, frozenset(dictionary.entities_for(best)), best, "", -negated
    )
