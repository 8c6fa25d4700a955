"""Tokenization helpers.

The search engine indexes documents word-by-word; the click simulator and
the online matcher compare queries as bags of tokens.  Both use the same
tokenizer defined here so the ranking function and the matcher never
disagree about word boundaries.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

from repro.text.normalize import normalize

__all__ = ["tokenize", "token_set", "ngrams", "char_ngrams", "word_positions"]

# A token is a run of alphanumerics.  Model numbers such as "350d" stay as a
# single token, which matters for camera names.
_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str, *, normalized: bool = False) -> list[str]:
    """Split *text* into lowercase alphanumeric tokens.

    Parameters
    ----------
    text:
        The raw (or pre-normalized) string.
    normalized:
        Pass ``True`` when the caller already ran :func:`repro.text.normalize`
        on the string, to skip the second normalization pass.

    >>> tokenize("Canon EOS-350D (Digital Rebel XT)")
    ['canon', 'eos', '350d', 'digital', 'rebel', 'xt']
    """
    if not normalized:
        text = normalize(text)
    return _TOKEN_RE.findall(text)


def token_set(text: str, *, normalized: bool = False) -> frozenset[str]:
    """Return the set of distinct tokens of *text*."""
    return frozenset(tokenize(text, normalized=normalized))


def ngrams(tokens: Iterable[str], n: int) -> Iterator[tuple[str, ...]]:
    """Yield consecutive *n*-token windows over *tokens*.

    >>> list(ngrams(["a", "b", "c"], 2))
    [('a', 'b'), ('b', 'c')]
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    items = list(tokens)
    for start in range(len(items) - n + 1):
        yield tuple(items[start : start + n])


def char_ngrams(text: str, n: int = 3, *, pad: bool = True) -> list[str]:
    """Return overlapping character n-grams of *text*.

    With ``pad=True`` the string is wrapped in boundary markers so short
    strings still produce at least one gram.

    >>> char_ngrams("abc", 3, pad=False)
    ['abc']
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if pad:
        text = f"^{text}$"
    if len(text) < n:
        return [text] if text else []
    return [text[i : i + n] for i in range(len(text) - n + 1)]


def word_positions(text: str, *, normalized: bool = False) -> dict[str, list[int]]:
    """Map each token of *text* to the list of positions where it occurs.

    Used by the inverted index to support positional statistics.
    """
    positions: dict[str, list[int]] = {}
    for idx, token in enumerate(tokenize(text, normalized=normalized)):
        positions.setdefault(token, []).append(idx)
    return positions
