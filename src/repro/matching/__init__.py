"""Online fuzzy matching of Web queries to structured data.

This is the motivating application of the paper's introduction: a query
such as ``"indy 4 near san fran"`` should resolve the substring ``"indy 4"``
to the movie entity "Indiana Jones and the Kingdom of the Crystal Skull"
so a structured source (showtimes) can answer it.

The package consumes the offline miner's output:

* :mod:`repro.matching.index` — :class:`DictionaryEntry`, the builders
  that turn mined synonyms into entries, and the :class:`DictionaryIndex`
  protocol, the five calls the readers below make (implemented in
  production by the compiled
  :class:`~repro.serving.artifact.SynonymArtifact`);
* :class:`~repro.matching.segmentation.QuerySegmenter` — finds which
  contiguous span of a live query matches a dictionary entry;
* :class:`~repro.matching.matcher.QueryMatcher` — the end-to-end matcher
  with an optional fuzzy (edit-distance) fallback for unseen misspellings;
* :class:`~repro.matching.resolver.MatchResolver` — orders the entities of
  an ambiguous match.

The in-memory reference index,
:class:`repro.matching.dictionary.SynonymDictionary`, is not imported here:
only tests and the perf oracle use it.
"""

from repro.matching.index import (
    DictionaryEntry,
    DictionaryIndex,
    entries_from_mined_rows,
    entries_from_mining_result,
    mined_row,
)
from repro.matching.segmentation import QuerySegmenter, Segment
from repro.matching.matcher import QueryMatcher, EntityMatch, MatchOutcome
from repro.matching.resolver import MatchResolver, RankedEntity

__all__ = [
    "DictionaryEntry",
    "DictionaryIndex",
    "entries_from_mined_rows",
    "entries_from_mining_result",
    "mined_row",
    "QuerySegmenter",
    "Segment",
    "QueryMatcher",
    "EntityMatch",
    "MatchOutcome",
    "MatchResolver",
    "RankedEntity",
]
