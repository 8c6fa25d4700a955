"""Query segmentation: locating the entity mention inside a live query.

A Web query rarely consists of the entity reference alone — the paper's
motivating example is ``"Indy 4 near San Fran"``, where only the prefix
``"Indy 4"`` refers to the movie.  The segmenter enumerates the contiguous
token spans of the query that could be dictionary strings (longest first)
and checks each against the synonym dictionary, returning every span that
matches together with the remainder of the query.

Every word of every dictionary string is an index token (stopwords
included), so a span holding a word the index lacks cannot match.  The
segmenter asks the index once per query about each distinct token it does
not already know to be an index token, then checks only the spans that lie
inside a run of known tokens.
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
        # Tokens the index has.  Unknown tokens are not kept, so the set is
        # bounded by the index's vocabulary; it lives as long as the
        # segmenter (one per artifact generation).  Set adds need no lock.
        self._known: set[str] = set()

    def _known_runs(self, tokens: list[str]) -> list[tuple[int, int]]:
        """``(start, end)`` of each maximal run of tokens the index has.

        Asks the index about each distinct token at most once per call.
        """
        known = self._known
        unknown: set[str] = set()
        runs: list[tuple[int, int]] = []
        run_start = 0
        for position, token in enumerate(tokens):
            if token not in known:
                if token not in unknown and self.dictionary.has_token(token):
                    known.add(token)
                else:
                    unknown.add(token)
                    if position > run_start:
                        runs.append((run_start, position))
                    run_start = position + 1
        if len(tokens) > run_start:
            runs.append((run_start, len(tokens)))
        return runs

    def _iter_segments(self, query: str) -> Iterator[Segment]:
        """Dictionary-matching spans of *query*, longest first, then leftmost."""
        tokens = tokenize(normalize(query), normalized=True)
        runs = self._known_runs(tokens)
        longest_run = max((end - start for start, end in runs), default=0)
        for length in range(min(self.max_span_tokens, longest_run), 0, -1):
            for run_start, run_end in runs:
                for start in range(run_start, run_end - length + 1):
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
