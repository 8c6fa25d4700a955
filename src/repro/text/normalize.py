"""String normalization used across the whole reproduction.

The paper matches query strings against each other purely by string
equality after light cleanup (query logs are already lowercased and
whitespace-collapsed by the search engine's pipeline).  We centralise that
cleanup here so Search Data, Click Data, catalog values and live queries
all agree on what "the same string" means.

There is one definition of a word: a run of letters and digits, in any
script (``[^\\W_]+`` after accents are folded, the text is lowercased and
apostrophes inside words are dropped).  :func:`normalize` emits exactly
those words joined by single spaces, and
:func:`repro.text.tokenize.tokenize` returns them, so a string's words are
the space-separated pieces of its normalized form.  Everything else —
whitespace, punctuation, symbols such as ``&`` and ``+`` — only separates
words.
"""

from __future__ import annotations

import re
import unicodedata

__all__ = ["strip_accents", "normalize"]

_WORD_RE = re.compile(r"[^\W_]+")
# Apostrophes inside words are removed rather than separating them, so
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


def normalize(text: str) -> str:
    """Canonical normalization applied to every query and data value.

    Strips accents, lowercases, drops apostrophes inside words and joins
    the words that remain with single spaces.  The result is the
    string-identity used by the click log, the search engine and the
    synonym dictionary.

    Idempotent, and cheap on its own output: the online path normalizes a
    query once and then probes the dictionary with the spans of it whose
    words the index has, each of which ``entities_for`` normalizes again,
    so an already-normalized ASCII string is recognised by one regex match
    and returned unchanged.

    >>> normalize("  Indiana Jones: and the Kingdom of the Crystal Skull ")
    'indiana jones and the kingdom of the crystal skull'
    >>> normalize("AT&T")
    'at t'
    """
    if _ALREADY_NORMALIZED_RE.fullmatch(text):
        return text
    text = _INNER_APOSTROPHE_RE.sub("", strip_accents(text).lower())
    return " ".join(_WORD_RE.findall(text))
