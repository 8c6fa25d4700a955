"""Sharded batch mining over the click log's profile cache.

The paper's miner is an offline batch job over months of logs for large
entity catalogs, and high-volume candidate queries recur across thousands
of entities.  :class:`~repro.clicklog.log.ClickLog` caches each candidate's
``(clicked_urls, total_clicks, clicks_by_url)`` profile, so shared
candidates are materialised once per log instead of once per entity; this
module is the one loop every mining job runs over it:

* :func:`mine_entity` — the single two-phase mining implementation used by
  :class:`~repro.core.pipeline.SynonymMiner`, the incremental miner and
  every batch worker;
* :class:`BatchMiner` — shards the catalog, mines the shards in process
  (``serial``, the default) or on a process pool (``process``, the only
  path that uses more than one core) and exposes both a collect-everything
  :meth:`BatchMiner.mine` and a streaming :meth:`BatchMiner.mine_iter` that
  yields per-entity results shard by shard with progress callbacks, for
  catalogs too large to hold a full
  :class:`~repro.core.types.MiningResult` comfortably.

Results are deterministic and identical whichever path mines them: shards
are consecutive slices of the (normalized, deduplicated) input order, every
scored list is fully sorted by ``(clicks desc, query asc)``, and all ICR
arithmetic is integer sums, so process scheduling cannot change a single
byte of the output.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from repro.clicklog.log import CacheStats, ClickLog, SearchLog
from repro.core.candidates import CandidateGenerator
from repro.core.config import MinerConfig
from repro.core.selection import CandidateSelector, score_profile
from repro.core.types import EntitySynonyms, MiningResult, SynonymCandidate
from repro.text.normalize import normalize

__all__ = [
    "CacheStats",
    "mine_entity",
    "BatchProgress",
    "BatchRunStats",
    "BatchMiner",
]

BACKENDS = ("serial", "process")


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
    :meth:`IncrementalSynonymMiner.refresh` and every :class:`BatchMiner`
    worker.
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


# ------------------------------------------------------------------------- #
# Process-backend plumbing: the logs are shipped to each worker exactly once
# (pool initializer), then shards reference them through this module global.
# Results travel back as compact tuples (see _pack_entry) rather than whole
# dataclass graphs: pickling a dataclass ships its qualified class name and
# per-field name/value pairs for every candidate, while a tuple ships only
# the values.  The two big strings wins: every candidate's
# ``intersecting_urls`` is by construction a subset of the entity's
# surrogate set (see score_profile), so URLs cross the channel once in the
# surrogate tuple and every intersection is a tuple of small ints; and
# ``selected`` rides along as indices into ``candidates`` instead of a
# second copy of each candidate.  The parent rehydrates.
# ------------------------------------------------------------------------- #

_WORKER_STATE: dict = {}

# (canonical, surrogates, candidate value tuples, indices of selected ones);
# inside each candidate tuple the last element holds surrogate indices (int)
# for intersecting URLs, with a raw-string fallback for any URL that is not
# a surrogate (defensive: score_profile never produces one today).
_PackedEntry = tuple[
    str,
    tuple[str, ...],
    tuple[tuple[str, int, float, int, tuple[int | str, ...]], ...],
    tuple[int, ...],
]


def _pack_entry(entry: EntitySynonyms) -> _PackedEntry:
    """Flatten one entity's result into plain tuples for the IPC channel."""
    candidate_index = {c.query: i for i, c in enumerate(entry.candidates)}
    surrogate_index = {url: i for i, url in enumerate(entry.surrogates)}
    return (
        entry.canonical,
        tuple(entry.surrogates),
        tuple(
            (
                c.query,
                c.ipc,
                c.icr,
                c.clicks,
                tuple(surrogate_index.get(url, url) for url in c.intersecting_urls),
            )
            for c in entry.candidates
        ),
        tuple(candidate_index[c.query] for c in entry.selected),
    )


def _unpack_entry(packed: _PackedEntry) -> EntitySynonyms:
    """Rehydrate a worker's packed tuple back into an :class:`EntitySynonyms`."""
    canonical, surrogates, candidate_rows, selected_indices = packed
    candidates = [
        SynonymCandidate(
            query=query,
            ipc=ipc,
            icr=icr,
            clicks=clicks,
            intersecting_urls=tuple(
                surrogates[ref] if isinstance(ref, int) else ref for ref in url_refs
            ),
        )
        for query, ipc, icr, clicks, url_refs in candidate_rows
    ]
    return EntitySynonyms(
        canonical=canonical,
        surrogates=surrogates,
        candidates=candidates,
        selected=[candidates[i] for i in selected_indices],
    )


def _init_batch_worker(click_log: ClickLog, search_log: SearchLog, config: MinerConfig) -> None:
    _WORKER_STATE["logs"] = (click_log, search_log, config)


def _mine_shard_in_worker(
    shard: Sequence[str],
) -> tuple[list[_PackedEntry], CacheStats]:
    click_log, search_log, config = _WORKER_STATE["logs"]
    before = click_log.cache_stats
    entries = _mine_shard(click_log, search_log, config, shard)
    return [_pack_entry(entry) for entry in entries], click_log.cache_stats - before


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
    workers: int
    backend: str
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
    workers:
        Size of the process pool (``os.cpu_count()`` when omitted); the
        in-process loop is one worker whatever is passed.
    shard_size:
        Entities per shard; defaults to slicing the input into roughly
        ``4 × workers`` shards so the pool stays busy near the tail.
    backend:
        ``"serial"`` (the default: one in-process loop, still sharded for
        streaming and progress) or ``"process"`` (the only path that uses
        more than one core; the logs are shipped once per worker and each
        worker warms its own cache).
    """

    def __init__(
        self,
        *,
        click_log: ClickLog,
        search_log: SearchLog | None = None,
        config: MinerConfig | None = None,
        workers: int | None = None,
        shard_size: int | None = None,
        backend: str = "serial",
    ) -> None:
        if backend == "thread":
            # Accepted spelling of the in-process loop: the frozen harness
            # (benchmarks/perf/offline.py) still passes it.  The thread pool
            # it used to select never beat the loop it wrapped.
            backend = "serial"
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
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
        # Only a process pool has a size; the in-process loop is one worker.
        self.workers = (workers or os.cpu_count() or 1) if backend == "process" else 1
        self.shard_size = shard_size
        self.backend = backend
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
            size = max(1, -(-len(canonicals) // (self.workers * 4)))
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

        Shards are yielded in catalog order (the process pool runs them
        concurrently), so consumers can write results out incrementally
        without holding a million-entity result in memory.  *progress* is
        invoked after each completed shard.
        """
        canonicals = self._canonicalize(values)
        shards = self._shards(canonicals)
        stats_before = self.click_log.cache_stats

        if self.backend == "process":
            shard_results = self._iter_process(shards)
        else:
            shard_results = (
                (_mine_shard(self.click_log, self.search_log, self.config, shard), None)
                for shard in shards
            )

        entities_done = 0
        worker_cache = CacheStats()
        for shards_done, (entries, delta) in enumerate(shard_results, start=1):
            if delta is not None:
                worker_cache = worker_cache + delta
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

        if self.backend == "process":
            cache = worker_cache
        else:
            cache = self.click_log.cache_stats - stats_before
        self._last_run_stats = BatchRunStats(
            entities=len(canonicals),
            shard_count=len(shards),
            workers=self.workers,
            backend=self.backend,
            cache=cache,
        )

    def _iter_process(self, shards: Sequence[Sequence[str]]):
        with ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_init_batch_worker,
            initargs=(self.click_log, self.search_log, self.config),
        ) as pool:
            for packed, delta in pool.map(_mine_shard_in_worker, shards):
                yield [_unpack_entry(entry) for entry in packed], delta

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def last_run_stats(self) -> BatchRunStats | None:
        """Stats of the most recently *completed* mine/mine_iter run."""
        return self._last_run_stats
