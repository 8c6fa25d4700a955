"""Click-log substrate.

Click Data ``L`` in the paper is a set of tuples ⟨q, p, n⟩ — query, clicked
URL, click count — aggregated from months of search-engine sessions.  This
package holds:

* the record schemas (:mod:`repro.clicklog.records`),
* the aggregated :class:`~repro.clicklog.log.ClickLog` with the lookup
  operations candidate generation needs, and
* the bipartite query–URL :class:`~repro.clicklog.graph.ClickGraph` used by
  the random-walk baseline.
"""

from repro.clicklog.records import ClickRecord, SearchRecord, ImpressionRecord
from repro.clicklog.log import CacheStats, CandidateProfile, ClickLog, SearchLog
from repro.clicklog.graph import ClickGraph
from repro.clicklog.stats import (
    QueryLogStats,
    compute_stats,
    head_share,
    matched_volume_share,
    rank_frequency,
)

__all__ = [
    "ClickRecord",
    "SearchRecord",
    "ImpressionRecord",
    "CacheStats",
    "CandidateProfile",
    "ClickLog",
    "SearchLog",
    "ClickGraph",
    "QueryLogStats",
    "compute_stats",
    "head_share",
    "matched_volume_share",
    "rank_frequency",
]
