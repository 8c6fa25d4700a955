"""Sharded batch mining over the click log's profile cache.

The paper's miner is an offline batch job over months of logs for large
entity catalogs, and high-volume candidate queries recur across thousands
of entities.  :class:`~repro.clicklog.log.ClickLog` caches each candidate's
``(clicked_urls, total_clicks, clicks_by_url)`` profile, so shared
candidates are materialised once per log instead of once per entity; this
module is the one loop every mining job runs over it:

* :func:`mine_entity` — the single two-phase mining implementation used by
  :class:`~repro.core.pipeline.SynonymMiner`, the incremental miner and
  :class:`BatchMiner`;
* :class:`BatchMiner` — shards the catalog, mines the shards one after
  another in process and exposes both a collect-everything
  :meth:`BatchMiner.mine` and a streaming :meth:`BatchMiner.mine_iter` that
  yields per-entity results shard by shard with progress callbacks, for
  catalogs too large to hold a full
  :class:`~repro.core.types.MiningResult` comfortably.

Results are deterministic and identical whatever the shard length: shards
are consecutive slices of the (normalized, deduplicated) input order, every
scored list is fully sorted by ``(clicks desc, query asc)``, and all ICR
arithmetic is integer sums, so sharding cannot change a single byte of the
output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from repro.clicklog.log import CacheStats, ClickLog, SearchLog
from repro.core.candidates import CandidateGenerator
from repro.core.config import MinerConfig
from repro.core.selection import CandidateSelector, score_profile
from repro.core.types import EntitySynonyms, MiningResult
from repro.text.normalize import normalize

__all__ = [
    "CacheStats",
    "mine_entity",
    "BatchProgress",
    "BatchRunStats",
    "BatchMiner",
]

# Shards a catalog is sliced into when no ``shard_size`` is given.
_DEFAULT_SHARD_COUNT = 4


def mine_entity(
    canonical: str,
    *,
    source: ClickLog,
    surrogates: Sequence[str],
    config: MinerConfig,
    selector: CandidateSelector | None = None,
) -> EntitySynonyms:
    """Run both mining phases for one already-normalized input string.

    This is the one implementation behind :meth:`SynonymMiner.mine_one`,
    :meth:`IncrementalSynonymMiner.refresh` and :class:`BatchMiner`.
    """
    if selector is None:
        selector = CandidateSelector(
            ipc_threshold=config.ipc_threshold, icr_threshold=config.icr_threshold
        )
    surrogate_set = set(surrogates)
    generator = CandidateGenerator(source, min_clicks=config.min_clicks)
    candidates = generator.candidates_for(canonical, surrogate_set)
    if config.exclude_canonical:
        candidates.discard(canonical)
    scored = [
        score_profile(source.candidate_profile(candidate), surrogate_set)
        for candidate in candidates
    ]
    scored.sort(key=lambda candidate: (-candidate.clicks, candidate.query))
    selected = selector.select(scored)
    return EntitySynonyms(
        canonical=canonical,
        surrogates=tuple(surrogates),
        candidates=scored,
        selected=selected,
    )


def _mine_shard(
    click_log: ClickLog, search_log: SearchLog, config: MinerConfig, shard: Sequence[str]
) -> list[EntitySynonyms]:
    """Mine one shard of already-normalized canonicals over the logs."""
    selector = CandidateSelector(
        ipc_threshold=config.ipc_threshold, icr_threshold=config.icr_threshold
    )
    return [
        mine_entity(
            canonical,
            source=click_log,
            surrogates=search_log.top_urls(canonical, k=config.surrogate_k),
            config=config,
            selector=selector,
        )
        for canonical in shard
    ]


@dataclass(frozen=True)
class BatchProgress:
    """Progress snapshot handed to ``progress`` callbacks after each shard."""

    shards_done: int
    shard_count: int
    entities_done: int
    entity_count: int

    @property
    def fraction(self) -> float:
        if not self.entity_count:
            return 1.0
        return self.entities_done / self.entity_count


@dataclass(frozen=True)
class BatchRunStats:
    """Summary of the last :meth:`BatchMiner.mine`/``mine_iter`` run."""

    entities: int
    shard_count: int
    cache: CacheStats


class BatchMiner:
    """Shards a catalog and mines it over one pair of logs.

    Parameters
    ----------
    click_log / search_log:
        The logs to mine; they are read in place, so do not ``add()`` to
        them while a :meth:`mine_iter` is being consumed.  The profile cache
        lives on *click_log* and outlives this miner.  Unlike
        :class:`~repro.core.pipeline.SynonymMiner` there is no live-engine
        fallback: batch mining is the offline, materialised-Search-Data
        shape.
    shard_size:
        Entities per shard; defaults to slicing the input into four
        shards.  Shards are the unit of :meth:`mine_iter` streaming and of
        ``progress`` callbacks.
    """

    def __init__(
        self,
        *,
        click_log: ClickLog,
        search_log: SearchLog | None = None,
        config: MinerConfig | None = None,
        shard_size: int | None = None,
        # Accepted and ignored: they sized and selected pools that no longer
        # exist, and the frozen harness (benchmarks/perf/offline.py) still
        # passes them; ROADMAP open item 1 frees the spelling.
        workers: int | None = None,
        backend: str | None = None,
    ) -> None:
        if shard_size is not None and shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {shard_size}")
        if search_log is None:
            # Without Search Data every surrogate set is empty and every
            # entity silently mines to nothing; fail loudly instead
            # (SurrogateFinder raises the same way for SynonymMiner).
            raise ValueError("batch mining requires materialised Search Data; pass search_log")
        self.config = config or MinerConfig()
        self.click_log = click_log
        self.search_log = search_log
        self.shard_size = shard_size
        self._last_run_stats: BatchRunStats | None = None

    # ------------------------------------------------------------------ #
    # Sharding
    # ------------------------------------------------------------------ #

    def _canonicalize(self, values: Iterable[str]) -> list[str]:
        """Normalize and deduplicate, keeping first-occurrence order.

        Duplicate raw values collapse onto one canonical just as they do in
        a :class:`MiningResult`, so batch output keys match per-entity
        mining's keys exactly.
        """
        return list(dict.fromkeys(normalize(value) for value in values))

    def _shards(self, canonicals: Sequence[str]) -> list[list[str]]:
        size = self.shard_size
        if size is None:
            size = max(1, -(-len(canonicals) // _DEFAULT_SHARD_COUNT))
        return [list(canonicals[i : i + size]) for i in range(0, len(canonicals), size)]

    # ------------------------------------------------------------------ #
    # Mining
    # ------------------------------------------------------------------ #

    def mine(
        self,
        values: Iterable[str],
        *,
        progress: Callable[[BatchProgress], None] | None = None,
    ) -> MiningResult:
        """Mine the whole catalog and collect a :class:`MiningResult`."""
        result = MiningResult()
        for entry in self.mine_iter(values, progress=progress):
            result.add(entry)
        return result

    def mine_iter(
        self,
        values: Iterable[str],
        *,
        progress: Callable[[BatchProgress], None] | None = None,
    ) -> Iterator[EntitySynonyms]:
        """Stream per-entity results in input order, shard by shard.

        Shards are mined and yielded in catalog order, so consumers can
        write results out incrementally without holding a million-entity
        result in memory.  *progress* is invoked after each completed shard.
        """
        canonicals = self._canonicalize(values)
        shards = self._shards(canonicals)
        stats_before = self.click_log.cache_stats

        entities_done = 0
        for shards_done, shard in enumerate(shards, start=1):
            entries = _mine_shard(self.click_log, self.search_log, self.config, shard)
            entities_done += len(entries)
            yield from entries
            if progress is not None:
                progress(
                    BatchProgress(
                        shards_done=shards_done,
                        shard_count=len(shards),
                        entities_done=entities_done,
                        entity_count=len(canonicals),
                    )
                )

        self._last_run_stats = BatchRunStats(
            entities=len(canonicals),
            shard_count=len(shards),
            cache=self.click_log.cache_stats - stats_before,
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def last_run_stats(self) -> BatchRunStats | None:
        """Stats of the most recently *completed* mine/mine_iter run."""
        return self._last_run_stats
