"""String similarity measures.

The paper argues that plain string similarity is *insufficient* for entity
synonym finding ("Canon EOS 350D" vs "Digital Rebel XT" share no tokens),
so this module holds only the two measures the reproduction calls:

* :func:`levenshtein_distance` (with its banded cut-off) — the online
  matcher's edit-distance fallback for misspelled queries;
* :func:`levenshtein_similarity` — the normalised form of that distance
  the matcher documents its fuzzy score against.

The fuzzy fallback's token-containment filter is not a measure here:
:meth:`repro.matching.matcher.QueryMatcher._fuzzy_match` decides it on
string ids, counting how many query tokens' postings hold a candidate
against the index's per-string distinct-word count, and never splits a
candidate.  Only the candidates that pass reach
:func:`levenshtein_distance`.

Every function is implemented from scratch on the standard library.
"""

from __future__ import annotations

__all__ = ["levenshtein_distance", "levenshtein_similarity"]


def levenshtein_distance(a: str, b: str, max_distance: int | None = None) -> int:
    """Classic edit distance (insert / delete / substitute, unit costs).

    With ``max_distance=k`` the result is exact whenever the distance is at
    most *k*; otherwise *some* value greater than *k* is returned.  The
    cut-off confines the dynamic programme to the diagonal band
    ``|i - j| <= k`` (an edit script of cost *k* cannot leave it) and stops
    at the first row whose band minimum already exceeds *k*.
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    # A common prefix or suffix never takes part in an optimal edit script.
    start, end_a, end_b = 0, len(a), len(b)
    while start < end_b and a[start] == b[start]:
        start += 1
    while end_b > start and a[end_a - 1] == b[end_b - 1]:
        end_a -= 1
        end_b -= 1
    a, b = a[start:end_a], b[start:end_b]
    len_a, len_b = len(a), len(b)
    limit = len_a if max_distance is None else min(max_distance, len_a)
    if not len_b or len_a - len_b > limit:
        return len_a
    # One row, updated in place.  Row 0 is ``row[j] = j``, so a cell right
    # of the band that no row has written yet still holds a value > limit,
    # which is all an out-of-band neighbour has to be.
    row = list(range(len_b + 1))
    beyond = limit + 1
    for i, ch_a in enumerate(a, start=1):
        if i > limit:
            low, left = i - limit, beyond
        else:
            low, left = 1, i
        high = min(len_b, i + limit)
        diagonal = row[low - 1]
        row[low - 1] = left
        for j in range(low, high + 1):
            above = row[j]
            if ch_a == b[j - 1]:
                left = diagonal
            else:
                if above < left:
                    left = above
                if diagonal < left:
                    left = diagonal
                left += 1
            diagonal = above
            row[j] = left
        # (With no cut-off in force no row can exceed the limit: skip the scan.)
        if limit < len_a and min(row[low : high + 1]) > limit:
            return beyond
    return row[len_b]


def levenshtein_similarity(a: str, b: str) -> float:
    """Edit distance rescaled into [0, 1]; 1.0 means identical strings."""
    if not a and not b:
        return 1.0
    longest = max(len(a), len(b))
    return 1.0 - levenshtein_distance(a, b) / longest
