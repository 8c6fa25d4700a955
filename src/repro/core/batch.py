"""Sharded batch mining over one profile-caching index.

The paper's miner is an offline batch job over months of logs for large
entity catalogs, and high-volume candidate queries recur across thousands
of entities.  This module is the one loop every catalog-sized mining job
runs:

* :class:`FrozenClickIndex` — a read-only snapshot of the
  :class:`~repro.clicklog.log.ClickLog` / :class:`~repro.clicklog.log.SearchLog`
  pair that caches each candidate's ``(clicked_urls, total_clicks,
  clicks_by_url)`` profile, so shared candidates are materialised once per
  run instead of once per entity (process workers receive the index once
  via the pool initializer);
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

Results are deterministic and identical to per-entity mining over the live
logs: shards are consecutive slices of the (normalized, deduplicated) input
order, every scored list is fully sorted by ``(clicks desc, query asc)``,
and all ICR arithmetic is integer sums, so process scheduling cannot change
a single byte of the output.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.clicklog.log import CandidateProfile, ClickLog, SearchLog
from repro.core.candidates import CandidateGenerator
from repro.core.config import MinerConfig
from repro.core.selection import CandidateSelector, score_profile
from repro.core.types import EntitySynonyms, MiningResult, SynonymCandidate
from repro.text.normalize import normalize

__all__ = [
    "CacheStats",
    "FrozenClickIndex",
    "mine_entity",
    "BatchProgress",
    "BatchRunStats",
    "BatchMiner",
]

BACKENDS = ("serial", "process")


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters of a :class:`FrozenClickIndex` profile cache."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of profile lookups served from the cache (0 when idle)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def __add__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(self.hits + other.hits, self.misses + other.misses)

    def __sub__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(self.hits - other.hits, self.misses - other.misses)


class FrozenClickIndex:
    """A read-only, shareable snapshot of Click Data + Search Data.

    The constructor copies the aggregated log state (one level deep), so
    later mutations of the source logs never leak in: the index answers
    every lookup from the moment of the snapshot.  Candidate profiles are
    cached across entities.

    The index pickles its data but not its cache, so process-pool workers
    start with cold caches that warm up independently.
    """

    def __init__(
        self,
        *,
        clicks: dict[str, dict[str, int]],
        url_to_queries: dict[str, set[str]],
        query_totals: dict[str, int],
        surrogate_urls: dict[str, list[str]],
    ) -> None:
        self._clicks = clicks
        self._url_to_queries = url_to_queries
        self._query_totals = query_totals
        self._surrogate_urls = surrogate_urls
        self._profiles: dict[str, CandidateProfile] = {}
        # Guards the cache map and counters so threads sharing one index
        # neither lose counter increments nor race cache insertion.
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    @classmethod
    def from_logs(
        cls,
        click_log: ClickLog,
        search_log: SearchLog | None = None,
        *,
        surrogate_k: int = 10,
    ) -> "FrozenClickIndex":
        """Snapshot *click_log* (and optionally *search_log*) into an index.

        Surrogate sets are materialised eagerly at the ``surrogate_k``
        cut-off for every query in the search log, so the index is fully
        self-contained (and picklable) afterwards.
        """
        snapshot = click_log.snapshot()
        surrogate_urls: dict[str, list[str]] = {}
        if search_log is not None:
            for query in search_log.queries():
                surrogate_urls[query] = search_log.top_urls(query, k=surrogate_k)
        return cls(
            clicks=snapshot.clicks,
            url_to_queries=snapshot.url_to_queries,
            query_totals=snapshot.query_totals,
            surrogate_urls=surrogate_urls,
        )

    # ------------------------------------------------------------------ #
    # Lookups (the ClickLog/SearchLog surface the miner needs)
    # ------------------------------------------------------------------ #

    def surrogates(self, query: str) -> tuple[str, ...]:
        """``G_A(query, P)``: the frozen surrogate URLs of *query*."""
        return tuple(self._surrogate_urls.get(query, ()))

    def queries_clicking(self, url: str) -> set[str]:
        """All queries with ≥ 1 click on *url* (treat as read-only)."""
        return self._url_to_queries.get(url, set())

    def urls_clicked_for(self, query: str) -> set[str]:
        """``G_L(query, P)``: URLs with ≥ 1 click for *query*."""
        return set(self._clicks.get(query, ()))

    def total_clicks(self, query: str) -> int:
        """Total clicks issued from *query* (ICR denominator)."""
        return self._query_totals.get(query, 0)

    def clicks_by_url(self, query: str) -> Mapping[str, int]:
        """The {url: clicks} map of *query* (treat as read-only)."""
        return self.candidate_profile(query).clicks_by_url

    def candidate_profile(self, query: str) -> CandidateProfile:
        """The scoring profile of *query*, built once and then shared."""
        with self._lock:
            cached = self._profiles.get(query)
            if cached is not None:
                self._hits += 1
                return cached
            self._misses += 1
        per_query = self._clicks.get(query, {})
        profile = CandidateProfile(
            query=query,
            clicked_urls=frozenset(per_query),
            total_clicks=self._query_totals.get(query, 0),
            clicks_by_url=per_query,
        )
        with self._lock:
            # Two threads may build the same profile concurrently; the
            # first insertion wins so callers share one object.
            return self._profiles.setdefault(query, profile)

    # ------------------------------------------------------------------ #
    # Cache management
    # ------------------------------------------------------------------ #

    @property
    def cache_stats(self) -> CacheStats:
        """Cumulative profile-cache counters since construction/reset."""
        with self._lock:
            return CacheStats(hits=self._hits, misses=self._misses)

    def reset_cache(self) -> None:
        """Drop cached profiles and zero the counters."""
        with self._lock:
            self._profiles.clear()
            self._hits = 0
            self._misses = 0

    # ------------------------------------------------------------------ #
    # Pickling (process backend)
    # ------------------------------------------------------------------ #

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_profiles"] = {}
        state["_hits"] = 0
        state["_misses"] = 0
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()


def mine_entity(
    canonical: str,
    *,
    source,
    surrogates: Sequence[str],
    config: MinerConfig,
    selector: CandidateSelector | None = None,
) -> EntitySynonyms:
    """Run both mining phases for one already-normalized input string.

    *source* is anything providing ``queries_clicking``, ``total_clicks``
    and ``candidate_profile`` — a live :class:`ClickLog` or a
    :class:`FrozenClickIndex`.  This is the one implementation behind
    :meth:`SynonymMiner.mine_one`, :meth:`IncrementalSynonymMiner.refresh`
    and every :class:`BatchMiner` worker.
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
    index: FrozenClickIndex, config: MinerConfig, shard: Sequence[str]
) -> list[EntitySynonyms]:
    """Mine one shard of already-normalized canonicals against *index*."""
    selector = CandidateSelector(
        ipc_threshold=config.ipc_threshold, icr_threshold=config.icr_threshold
    )
    return [
        mine_entity(
            canonical,
            source=index,
            surrogates=index.surrogates(canonical),
            config=config,
            selector=selector,
        )
        for canonical in shard
    ]


# ------------------------------------------------------------------------- #
# Process-backend plumbing: the index is shipped to each worker exactly once
# (pool initializer), then shards reference it through this module global.
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


def _init_batch_worker(index: FrozenClickIndex, config: MinerConfig) -> None:
    _WORKER_STATE["index"] = index
    _WORKER_STATE["config"] = config
    index.reset_cache()


def _mine_shard_in_worker(
    shard: Sequence[str],
) -> tuple[list[_PackedEntry], CacheStats]:
    index: FrozenClickIndex = _WORKER_STATE["index"]
    config: MinerConfig = _WORKER_STATE["config"]
    before = index.cache_stats
    entries = _mine_shard(index, config, shard)
    return [_pack_entry(entry) for entry in entries], index.cache_stats - before


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
    """Shards a catalog and mines it against one index.

    Parameters
    ----------
    click_log / search_log:
        The logs to snapshot into a :class:`FrozenClickIndex` (ignored when
        *index* is given).  Unlike :class:`~repro.core.pipeline.SynonymMiner`
        there is no live-engine fallback: batch mining is the offline,
        materialised-Search-Data shape.
    index:
        A pre-built index to reuse; its profile cache then persists across
        runs (the "shared score cache" for repeated mining jobs).
    workers:
        Size of the process pool (``os.cpu_count()`` when omitted); the
        in-process loop is one worker whatever is passed.
    shard_size:
        Entities per shard; defaults to slicing the input into roughly
        ``4 × workers`` shards so the pool stays busy near the tail.
    backend:
        ``"serial"`` (the default: one in-process loop, still sharded for
        streaming and progress) or ``"process"`` (the only path that uses
        more than one core; the index is pickled once per worker and each
        worker warms its own cache).
    """

    def __init__(
        self,
        *,
        click_log: ClickLog | None = None,
        search_log: SearchLog | None = None,
        index: FrozenClickIndex | None = None,
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
        self.config = config or MinerConfig()
        if index is None:
            if click_log is None:
                raise ValueError("provide click_log and search_log, or a prebuilt index")
            if search_log is None:
                # Without Search Data every surrogate set is empty and every
                # entity silently mines to nothing; fail loudly instead
                # (SurrogateFinder raises the same way for SynonymMiner).
                raise ValueError(
                    "batch mining requires materialised Search Data; "
                    "pass search_log or a prebuilt index"
                )
            index = FrozenClickIndex.from_logs(
                click_log,
                search_log,
                surrogate_k=self.config.surrogate_k,
            )
        self.index = index
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
        stats_before = self.index.cache_stats

        if self.backend == "process":
            shard_results = self._iter_process(shards)
        else:
            shard_results = (
                (_mine_shard(self.index, self.config, shard), None) for shard in shards
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
            cache = self.index.cache_stats - stats_before
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
            initargs=(self.index, self.config),
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

    @property
    def cache_stats(self) -> CacheStats:
        """Cumulative cache counters of the underlying index (in-process runs)."""
        return self.index.cache_stats
