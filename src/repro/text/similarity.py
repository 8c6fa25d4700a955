"""String similarity measures.

The paper argues that plain string similarity is *insufficient* for entity
synonym finding ("Canon EOS 350D" vs "Digital Rebel XT" share no tokens),
but similarity still plays three roles in this reproduction:

* the string-similarity baseline in :mod:`repro.baselines.stringsim`
  implements the "substring matching" approach the introduction criticises;
* the online matcher uses token containment to align query segments with
  dictionary entries; and
* the evaluation labels hypernym/hyponym relations partly through token
  subset relations.

Every function is implemented from scratch on the standard library.
"""

from __future__ import annotations

from collections import Counter
from math import sqrt
from typing import Iterable, Sequence

from repro.text.tokenize import char_ngrams, tokenize

__all__ = [
    "levenshtein_distance",
    "damerau_levenshtein_distance",
    "levenshtein_similarity",
    "jaro_similarity",
    "jaro_winkler_similarity",
    "jaccard_similarity",
    "dice_coefficient",
    "token_containment",
    "cosine_ngram_similarity",
    "longest_common_subsequence",
    "token_sort_ratio",
]


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


def damerau_levenshtein_distance(a: str, b: str) -> int:
    """Edit distance that additionally counts adjacent transpositions as one
    edit (the "optimal string alignment" variant)."""
    if a == b:
        return 0
    len_a, len_b = len(a), len(b)
    if not len_a:
        return len_b
    if not len_b:
        return len_a
    dist = [[0] * (len_b + 1) for _ in range(len_a + 1)]
    for i in range(len_a + 1):
        dist[i][0] = i
    for j in range(len_b + 1):
        dist[0][j] = j
    for i in range(1, len_a + 1):
        for j in range(1, len_b + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            dist[i][j] = min(
                dist[i - 1][j] + 1,
                dist[i][j - 1] + 1,
                dist[i - 1][j - 1] + cost,
            )
            if i > 1 and j > 1 and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]:
                dist[i][j] = min(dist[i][j], dist[i - 2][j - 2] + 1)
    return dist[len_a][len_b]


def levenshtein_similarity(a: str, b: str) -> float:
    """Edit distance rescaled into [0, 1]; 1.0 means identical strings."""
    if not a and not b:
        return 1.0
    longest = max(len(a), len(b))
    return 1.0 - levenshtein_distance(a, b) / longest


def jaro_similarity(a: str, b: str) -> float:
    """Jaro similarity in [0, 1]."""
    if a == b:
        return 1.0
    len_a, len_b = len(a), len(b)
    if not len_a or not len_b:
        return 0.0
    match_window = max(len_a, len_b) // 2 - 1
    match_window = max(match_window, 0)
    a_matched = [False] * len_a
    b_matched = [False] * len_b
    matches = 0
    for i, ch in enumerate(a):
        lo = max(0, i - match_window)
        hi = min(len_b, i + match_window + 1)
        for j in range(lo, hi):
            if not b_matched[j] and b[j] == ch:
                a_matched[i] = True
                b_matched[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i in range(len_a):
        if a_matched[i]:
            while not b_matched[j]:
                j += 1
            if a[i] != b[j]:
                transpositions += 1
            j += 1
    transpositions //= 2
    return (
        matches / len_a + matches / len_b + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler_similarity(a: str, b: str, *, prefix_weight: float = 0.1) -> float:
    """Jaro–Winkler similarity: Jaro boosted by a common-prefix bonus."""
    if not 0.0 <= prefix_weight <= 0.25:
        raise ValueError(f"prefix_weight must be in [0, 0.25], got {prefix_weight}")
    jaro = jaro_similarity(a, b)
    prefix = 0
    for ch_a, ch_b in zip(a, b):
        if ch_a != ch_b or prefix == 4:
            break
        prefix += 1
    return jaro + prefix * prefix_weight * (1.0 - jaro)


def jaccard_similarity(a: Iterable[str], b: Iterable[str]) -> float:
    """Jaccard overlap of two token collections (treated as sets)."""
    set_a, set_b = set(a), set(b)
    if not set_a and not set_b:
        return 1.0
    union = set_a | set_b
    if not union:
        return 0.0
    return len(set_a & set_b) / len(union)


def dice_coefficient(a: Iterable[str], b: Iterable[str]) -> float:
    """Sørensen–Dice coefficient of two token collections."""
    set_a, set_b = set(a), set(b)
    if not set_a and not set_b:
        return 1.0
    denom = len(set_a) + len(set_b)
    if denom == 0:
        return 0.0
    return 2.0 * len(set_a & set_b) / denom


def token_containment(needle: Iterable[str], haystack: Iterable[str]) -> float:
    """Fraction of *needle* tokens that also appear in *haystack*.

    An asymmetric measure: a short alias is a good match for a long
    canonical title when all alias tokens are contained.  The online matcher
    applies the same measure but derives it from token-index posting counts
    (:meth:`repro.matching.matcher.QueryMatcher._fuzzy_match`) instead of
    calling this per candidate.
    """
    needle_set, haystack_set = set(needle), set(haystack)
    if not needle_set:
        return 0.0
    return len(needle_set & haystack_set) / len(needle_set)


def cosine_ngram_similarity(a: str, b: str, *, n: int = 3) -> float:
    """Cosine similarity between character n-gram count vectors of a and b."""
    grams_a = Counter(char_ngrams(a, n))
    grams_b = Counter(char_ngrams(b, n))
    if not grams_a or not grams_b:
        return 1.0 if a == b else 0.0
    dot = sum(count * grams_b.get(gram, 0) for gram, count in grams_a.items())
    norm_a = sqrt(sum(count * count for count in grams_a.values()))
    norm_b = sqrt(sum(count * count for count in grams_b.values()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


def longest_common_subsequence(a: Sequence, b: Sequence) -> int:
    """Length of the longest common subsequence of two sequences."""
    if not a or not b:
        return 0
    previous = [0] * (len(b) + 1)
    for item_a in a:
        current = [0]
        for j, item_b in enumerate(b, start=1):
            if item_a == item_b:
                current.append(previous[j - 1] + 1)
            else:
                current.append(max(previous[j], current[j - 1]))
        previous = current
    return previous[-1]


def token_sort_ratio(a: str, b: str) -> float:
    """Levenshtein similarity of the alphabetically-sorted token strings.

    Robust to word reordering ("rebel digital xt" vs "digital rebel xt").
    """
    sorted_a = " ".join(sorted(tokenize(a)))
    sorted_b = " ".join(sorted(tokenize(b)))
    return levenshtein_similarity(sorted_a, sorted_b)
