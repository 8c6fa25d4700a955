"""The frozen perf harness's spelling of the catalog miner.

There is one catalog miner, :class:`~repro.core.pipeline.SynonymMiner`
(``mine`` / ``mine_iter`` / ``last_run_stats``).  :class:`BatchMiner` is a
bare subclass of it, importable from here only because
``benchmarks/perf/offline.py`` constructs the miner under this name.
"""

from __future__ import annotations

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
