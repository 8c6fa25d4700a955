"""The frozen perf harness's spelling of the catalog miner.

There is one catalog miner, :class:`~repro.core.pipeline.SynonymMiner`
(``mine`` / ``mine_iter``).  :class:`BatchMiner` is a subclass of it that
adds nothing to mining, importable from here only because
``benchmarks/perf/offline.py`` constructs the miner under this name and
reads ``last_run_stats.cache.hit_rate`` after ``mine()``.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.clicklog.log import ClickLog, SearchLog
from repro.core.config import MinerConfig
from repro.core.pipeline import SynonymMiner

__all__ = ["BatchMiner"]


class BatchMiner(SynonymMiner):
    def __init__(
        self,
        *,
        click_log: ClickLog,
        search_log: SearchLog | None = None,
        config: MinerConfig | None = None,
        # Accepted and ignored: the frozen harness (benchmarks/perf/offline.py)
        # passes them; ROADMAP open item 1 frees the spelling.
        workers: int | None = None,
        backend: str | None = None,
    ) -> None:
        super().__init__(click_log=click_log, search_log=search_log, config=config)

    @property
    def last_run_stats(self) -> SimpleNamespace:
        """What the frozen harness reads after ``mine()``: there is no cache,
        so its hit rate is 0.0.  ROADMAP open item 1 frees the spelling, like
        ``workers=`` and ``backend=``."""
        return SimpleNamespace(cache=SimpleNamespace(hit_rate=0.0))
