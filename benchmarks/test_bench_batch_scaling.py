"""Batch mining throughput and cache behaviour on a shared-candidate catalog.

Not a paper artifact: the paper's miner is a one-shot offline job and
reports no running times.  This benchmark exists for the production-scale
goal — it builds a 1,000-entity synthetic catalog whose entities share
high-volume candidate queries (the shape that makes per-entity profile
re-materialisation quadratic-ish in practice) and records what the
:class:`~repro.core.pipeline.SynonymMiner` loop does with it: entities/s with a
cold and a warm profile cache, and the cache hit rates.

What is asserted is what does not depend on the machine: results equal the
formula-level reference (``tests/conftest.py::reference_entry``), and the
click log's profile cache absorbs the shared candidates (≥ 50 % hits cold,
~100 % for a second job over the same log).  The timings are recorded, not
gated; ``benchmarks/perf`` is the gated ledger.
"""

from __future__ import annotations

import gc
import random
import time

import pytest

from repro.clicklog.log import ClickLog, SearchLog
from repro.core.config import MinerConfig
from repro.core.pipeline import SynonymMiner

from benchmarks.conftest import write_result
from tests.conftest import reference_entry

ENTITIES = 1_000
HUB_URLS = 400
HOT_QUERIES = 120
URLS_PER_HOT_QUERY = 900
HUBS_PER_ENTITY = 4
HUBS_PER_HOT_QUERY = 30


def build_shared_candidate_catalog(
    *,
    entities: int = ENTITIES,
    hubs: int = HUB_URLS,
    hot_queries: int = HOT_QUERIES,
    urls_per_hot: int = URLS_PER_HOT_QUERY,
    seed: int = 7,
) -> tuple[SearchLog, ClickLog, list[str]]:
    """A catalog where broad head queries recur as candidates of many entities.

    Every entity's surrogate set mixes its own pages with a few "hub" pages
    (portal/aggregator URLs), and each hot query clicks a wide URL footprint
    that crosses many hubs — so the same hot queries are scored against
    thousands of entities, exactly the workload the profile cache targets.
    """
    rng = random.Random(seed)
    hub_urls = [f"https://hub{h}.example/page" for h in range(hubs)]
    filler_urls = [f"https://misc{m}.example/page" for m in range(6_000)]
    search: list[tuple[str, str, int]] = []
    clicks: list[tuple[str, str, int]] = []
    values: list[str] = []
    for i in range(entities):
        canonical = f"entity number {i:04d}"
        values.append(canonical)
        own = [f"https://site{i}.example/p{j}" for j in range(6)]
        surrogates = own + rng.sample(hub_urls, HUBS_PER_ENTITY)
        for rank, url in enumerate(surrogates, start=1):
            search.append((canonical, url, rank))
        for a in range(3):
            alias = f"alias {a} of {i:04d}"
            for url in own[:4]:
                clicks.append((alias, url, rng.randint(5, 30)))
        clicks.append((canonical, own[0], rng.randint(1, 10)))
    for h in range(hot_queries):
        query = f"hot query {h:03d}"
        urls = rng.sample(hub_urls, HUBS_PER_HOT_QUERY) + rng.sample(
            filler_urls, urls_per_hot - HUBS_PER_HOT_QUERY
        )
        for url in urls:
            clicks.append((query, url, rng.randint(1, 20)))
    return SearchLog.from_tuples(search), ClickLog.from_tuples(clicks), values


@pytest.fixture(scope="module")
def shared_catalog():
    return build_shared_candidate_catalog()


def _best_of(runs: int, fn):
    """Best wall-clock of *runs* calls, with the last call's return value.

    The previous result is dropped and collected before each call: a live
    1,000-entity result makes the collector's passes over the next one
    visibly dearer, which would bill the second run for the first.
    """
    best = float("inf")
    value = None
    for _ in range(runs):
        value = None
        gc.collect()
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


class TestBatchScaling:
    def test_shared_cache_absorbs_hot_candidates(self, results_dir):
        # Its own logs, so the first run below really starts cold.
        search_log, click_log, values = build_shared_candidate_catalog()
        config = MinerConfig()
        logs = {"click_log": click_log, "search_log": search_log, "config": config}

        batch = SynonymMiner(**logs)
        # Cold run: the profile cache warms up inside the measured window.
        cold_s, _ = _best_of(1, lambda: batch.mine(values))
        cold_stats = batch.last_run_stats
        # Warm run: the cache lives on the click log, so a later job over
        # the same logs (a new miner, not a reused one) is served from it.
        warm = SynonymMiner(**logs)
        warm_s, batch_result = _best_of(3, lambda: warm.mine(values))
        warm_stats = warm.last_run_stats

        reference = [reference_entry(search_log, click_log, value, config) for value in values]
        assert list(batch_result) == reference
        lines = [
            "Batch mining scaling — 1,000-entity catalog with shared candidates",
            f"  entities                 {len(values)}",
            f"  hot (shared) candidates  {HOT_QUERIES} x {URLS_PER_HOT_QUERY} clicked URLs",
            f"  in-process loop          {cold_s:8.3f} s  "
            f"({len(values) / cold_s:8.0f} entities/s)  [cold cache]",
            f"  in-process loop          {warm_s:8.3f} s  "
            f"({len(values) / warm_s:8.0f} entities/s)  [warm cache]",
            f"  cold-run profile cache   {cold_stats.cache.hits} hits / "
            f"{cold_stats.cache.lookups} lookups "
            f"(hit rate {cold_stats.cache.hit_rate:.1%})",
            f"  warm-run profile cache   hit rate {warm_stats.cache.hit_rate:.1%}",
        ]
        write_result(results_dir, "batch_scaling.txt", "\n".join(lines))

        assert cold_stats.cache.hit_rate >= 0.5, "\n".join(lines)
        assert warm_stats.cache.hit_rate >= 0.99, "\n".join(lines)

    def test_batch_mine_full_catalog(self, benchmark, shared_catalog):
        search_log, click_log, values = shared_catalog
        batch = SynonymMiner(click_log=click_log, search_log=search_log, config=MinerConfig())
        result = benchmark.pedantic(batch.mine, args=(values,), rounds=3, iterations=1)
        assert len(result) == len(values)
