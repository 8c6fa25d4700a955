"""Query segmentation: locating the entity mention inside a live query.

A Web query rarely consists of the entity reference alone — the paper's
motivating example is ``"Indy 4 near San Fran"``, where only the prefix
``"Indy 4"`` refers to the movie.  The segmenter enumerates contiguous
token spans of the query (longest first) and checks each against the
synonym dictionary, returning every span that matches a dictionary string
together with the remainder of the query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.matching.index import DictionaryIndex
from repro.text.normalize import normalize
from repro.text.tokenize import tokenize

__all__ = ["Segment", "QuerySegmenter"]


@dataclass(frozen=True)
class Segment:
    """One candidate split of a query into (entity mention, remainder).

    Attributes
    ----------
    mention:
        The contiguous token span that matched a dictionary string.
    remainder:
        The rest of the query with the mention removed (token-joined).
    start / end:
        Token offsets of the mention within the query (end is exclusive).
    entity_ids:
        The entities the mention maps to in the dictionary.
    """

    mention: str
    remainder: str
    start: int
    end: int
    entity_ids: frozenset[str]

    @property
    def token_length(self) -> int:
        """Number of tokens in the mention."""
        return self.end - self.start


class QuerySegmenter:
    """Finds dictionary-matching spans inside live queries."""

    def __init__(self, dictionary: DictionaryIndex) -> None:
        self.dictionary = dictionary
        # No span longer than the longest dictionary string can match.
        self.max_span_tokens = dictionary.max_entry_tokens or 1

    def _iter_segments(self, query: str) -> Iterator[Segment]:
        """Dictionary-matching spans of *query*, longest first, then leftmost."""
        tokens = tokenize(normalize(query), normalized=True)
        max_len = min(self.max_span_tokens, len(tokens))
        for length in range(max_len, 0, -1):
            for start in range(0, len(tokens) - length + 1):
                end = start + length
                mention = " ".join(tokens[start:end])
                entity_ids = self.dictionary.entities_for(mention)
                if not entity_ids:
                    continue
                yield Segment(
                    mention=mention,
                    remainder=" ".join(tokens[:start] + tokens[end:]),
                    start=start,
                    end=end,
                    entity_ids=frozenset(entity_ids),
                )

    def segments(self, query: str) -> list[Segment]:
        """Return every dictionary-matching segmentation of *query*.

        Segments are ordered longest-mention-first (ties broken by earlier
        start), which is the preference order the matcher uses: the longest
        explained span wins.
        """
        return list(self._iter_segments(query))

    def best_segment(self, query: str) -> Segment | None:
        """The preferred segmentation of *query*, or ``None`` if no span matches.

        Stops at the first hit: the enumeration order is the preference
        order, so no shorter or later span is probed once one matches.
        """
        return next(self._iter_segments(query), None)
