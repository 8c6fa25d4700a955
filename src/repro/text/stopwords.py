"""A small English stopword list.

Stopwords are used in two places:

* the search engine down-weights them when scoring (they still get indexed
  so that exact-title matches such as "and the kingdom of the crystal
  skull" remain possible), and
* the query segmenter in :mod:`repro.matching` ignores them when deciding
  which part of a live query refers to an entity.
"""

from __future__ import annotations

__all__ = ["STOPWORDS", "is_stopword", "remove_stopwords"]

STOPWORDS: frozenset[str] = frozenset(
    """
    a an and are as at be but by for from has have i if in into is it its
    of on or that the their them then there these they this to was were
    which will with near me my your our
    """.split()
)


def is_stopword(token: str) -> bool:
    """Return ``True`` when *token* is in the stopword list (case-sensitive,
    tokens are expected to be already lowercased by the tokenizer)."""
    return token in STOPWORDS


def remove_stopwords(tokens: list[str]) -> list[str]:
    """Return *tokens* without stopwords, preserving order and duplicates."""
    return [token for token in tokens if token not in STOPWORDS]
