"""Click-log substrate: the two logs the miner reads.

Search Data ``A`` in the paper is a set of tuples ⟨q, p, r⟩ — query, result
URL, rank — and Click Data ``L`` a set of tuples ⟨q, p, n⟩ — query, clicked
URL, click count — aggregated from months of search-engine sessions.  This
package holds:

* the record schemas (:mod:`repro.clicklog.records`) and
* the aggregated :class:`~repro.clicklog.log.SearchLog` and
  :class:`~repro.clicklog.log.ClickLog` with the lookup operations
  candidate generation and selection need — the click log is also the
  bipartite query–URL click graph the random-walk baseline walks.

Descriptive statistics of a log are paper-side: :mod:`repro.eval.logstats`.
"""

from repro.clicklog.records import ClickRecord, SearchRecord
from repro.clicklog.log import CacheStats, CandidateProfile, ClickLog, SearchLog

__all__ = [
    "ClickRecord",
    "SearchRecord",
    "CacheStats",
    "CandidateProfile",
    "ClickLog",
    "SearchLog",
]
