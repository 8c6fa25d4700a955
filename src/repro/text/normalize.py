"""String normalization used across the whole reproduction.

The paper matches query strings against each other purely by string
equality after light cleanup (query logs are already lowercased and
whitespace-collapsed by the search engine's pipeline).  We centralise that
cleanup here so Search Data, Click Data, catalog values and live queries
all agree on what "the same string" means.
"""

from __future__ import annotations

import re
import unicodedata

__all__ = [
    "strip_accents",
    "normalize_whitespace",
    "strip_punctuation",
    "normalize",
]

_WHITESPACE_RE = re.compile(r"\s+")
# Characters that separate words when dropped (hyphen, slash, colon ...).
_SEPARATOR_PUNCT_RE = re.compile(r"[-_/\\:;,.!?()\[\]{}\"']+")
# Apostrophes inside words are removed rather than replaced by a space so
# "director's" normalises to "directors", matching query-log behaviour.
_INNER_APOSTROPHE_RE = re.compile(r"(?<=\w)['’](?=\w)")
# What :func:`normalize` leaves alone: ASCII lowercase alphanumeric words
# separated by single spaces.  Always used with ``fullmatch`` (``$`` would
# let a trailing newline through).
_ALREADY_NORMALIZED_RE = re.compile(r"[a-z0-9]+(?: [a-z0-9]+)*")


def strip_accents(text: str) -> str:
    """Return *text* with combining accents removed (NFKD fold).

    >>> strip_accents("Pokémon")
    'Pokemon'
    """
    decomposed = unicodedata.normalize("NFKD", text)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


def normalize_whitespace(text: str) -> str:
    """Collapse runs of whitespace into single spaces and trim the ends."""
    return _WHITESPACE_RE.sub(" ", text).strip()


def strip_punctuation(text: str) -> str:
    """Replace separator punctuation with spaces and drop inner apostrophes."""
    text = _INNER_APOSTROPHE_RE.sub("", text)
    return _SEPARATOR_PUNCT_RE.sub(" ", text)


def normalize(text: str) -> str:
    """Canonical normalization applied to every query and data value.

    Lowercases, strips accents, removes separator punctuation and collapses
    whitespace.  The result is the string-identity used by the click log,
    the search engine and the synonym dictionary.

    Idempotent, and cheap on its own output: the online path normalizes a
    query once and then probes the dictionary with spans of it, each of
    which is normalized again by the index, so an already-normalized ASCII
    string is recognised by one regex match and returned unchanged.

    >>> normalize("  Indiana Jones: and the Kingdom of the Crystal Skull ")
    'indiana jones and the kingdom of the crystal skull'
    """
    if _ALREADY_NORMALIZED_RE.fullmatch(text):
        return text
    text = strip_accents(text)
    text = text.lower()
    text = strip_punctuation(text)
    return normalize_whitespace(text)
