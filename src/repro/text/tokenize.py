"""Tokenization helpers.

The search engine indexes documents word-by-word; the click simulator and
the online matcher compare queries as bags of tokens.  Both use the same
tokenizer defined here so the ranking function and the matcher never
disagree about word boundaries — and neither disagrees with
:func:`repro.text.normalize`, whose output is exactly the tokens joined by
single spaces.
"""

from __future__ import annotations

from repro.text.normalize import normalize

__all__ = ["tokenize", "token_set"]


def tokenize(text: str, *, normalized: bool = False) -> list[str]:
    """The words of *text*: the space-separated pieces of its normalization.

    A word is a run of letters and digits in any script, so model numbers
    such as "350d" stay one token (which matters for camera names) and
    "камера" or "日本" are tokens like any other.

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
    return text.split()


def token_set(text: str, *, normalized: bool = False) -> frozenset[str]:
    """Return the set of distinct tokens of *text*."""
    return frozenset(tokenize(text, normalized=normalized))
