"""Click-log substrate.

Click Data ``L`` in the paper is a set of tuples ⟨q, p, n⟩ — query, clicked
URL, click count — aggregated from months of search-engine sessions.  This
package holds:

* the record schemas (:mod:`repro.clicklog.records`) and
* the aggregated :class:`~repro.clicklog.log.ClickLog` with the lookup
  operations candidate generation needs — which is also the bipartite
  query–URL click graph the random-walk baseline walks.
"""

from repro.clicklog.records import ClickRecord, SearchRecord
from repro.clicklog.log import CacheStats, CandidateProfile, ClickLog, SearchLog
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
    "CacheStats",
    "CandidateProfile",
    "ClickLog",
    "SearchLog",
    "QueryLogStats",
    "compute_stats",
    "head_share",
    "matched_volume_share",
    "rank_frequency",
]
