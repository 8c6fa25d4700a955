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

__all__ = ["tokenize", "token_set", "ngrams"]

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
