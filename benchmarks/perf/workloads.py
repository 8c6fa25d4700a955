"""The four named workloads and the seeded inputs each one runs on.

A workload is one deployment profile of the whole system: a serving half
(catalog + traffic mix driven at a live daemon) and an offline half
(click/search logs mined, compiled and published).  Every workload runs
both halves so every metric is defined on every workload; what differs
is which layer does most of the work, recorded in ``why``.

Everything here is a pure function of ``(workload, seed)``: the program
under test only ever sees these generated inputs.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Sequence

from repro.clicklog.log import ClickLog, SearchLog
from repro.clicklog.records import ClickRecord
from repro.scenarios.spec import Scenario
from repro.scenarios.workload import (
    Catalog,
    Request,
    build_catalog,
    catalog_fingerprint,
    mutate_rows,
    request_stream,
)
from repro.simulation.catalog import Entity, EntityCatalog
from repro.storage.jsonl import write_jsonl

__all__ = [
    "OfflineInputs",
    "OfflineShape",
    "ServingInputs",
    "WORKLOADS",
    "Workload",
    "build_offline_inputs",
    "build_serving_inputs",
    "request_list_sha256",
]


@dataclass(frozen=True)
class OfflineShape:
    """Size of the shared-candidate synthetic logs the offline half mines."""

    entities: int
    hot_queries: int
    urls_per_hot: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenario: dict[str, Any]  # Scenario overrides (seed is set per run)
    requests: int
    cold: bool  # POST /admin/reload before every repeat instead of a warm-up replay
    mmap: bool
    # Publish a chained delta after every Nth request of a repeat; 0 keeps
    # the repeats read-only and measures delta visibility on the idle
    # daemon afterwards.
    churn_every: int
    deltas: int
    offline: OfflineShape
    serving_share: float  # share of a --seconds budget spent on the serving half

    def smoke(self) -> "Workload":
        """A seconds-long miniature with the same shape (harness tests)."""
        return replace(
            self,
            scenario={**self.scenario, "entities": 100, "batch_ratio": 0.1},
            requests=200,
            churn_every=50 if self.churn_every else 0,
            deltas=min(self.deltas, 2),
            offline=OfflineShape(entities=60, hot_queries=8, urls_per_hot=40),
        )


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="serve-head-warm",
            why=(
                "Head of production traffic: ~2/3 LRU hits, misses are cheap exact "
                "segments, so socket + HTTP + JSON + LRU dominate; wire and cache "
                "changes show here, fuzzy changes must not."
            ),
            scenario={"entities": 2000},
            # Enough distinct queries (~1.4x the LRU) that a replay is not
            # all cache hits: hits come from repetition inside the list.
            requests=5000,
            cold=False,
            mmap=False,
            churn_every=0,
            deltas=3,
            # No shared hot candidates: the miner's profile cache is bypassed.
            offline=OfflineShape(entities=600, hot_queries=0, urls_per_hot=0),
            serving_share=0.75,
        ),
        Workload(
            name="serve-typo-tail",
            why=(
                "The paper's problem: working set far above the LRU and 60% typos, so "
                "most requests fall to the edit-distance fallback over a wide "
                "shortlist; matching + text.similarity dominate, wire is the minority."
            ),
            scenario={
                "entities": 4000,
                "zipf_exponent": 0.3,
                "noise_rate": 0.6,
                "context_rate": 0.1,
                "miss_rate": 0.1,
                "resolve_ratio": 0.2,
                "batch_ratio": 0.05,
            },
            requests=1200,
            cold=True,
            mmap=False,
            churn_every=0,
            deltas=2,
            offline=OfflineShape(entities=600, hot_queries=40, urls_per_hot=300),
            serving_share=0.75,
        ),
        Workload(
            name="serve-delta-churn",
            why=(
                "Writes beside reads on the mmap path: chained delta sidecars land "
                "mid-traffic and are folded + remapped; shows a read gain that costs "
                "hot swap (or the reverse) and gates 'one serving path'."
            ),
            scenario={"entities": 2000, "dirty_fraction": 0.01},
            requests=3000,
            cold=False,
            mmap=True,
            churn_every=600,
            deltas=4,
            offline=OfflineShape(entities=600, hot_queries=40, urls_per_hot=300),
            serving_share=0.75,
        ),
        Workload(
            name="offline-mine-publish",
            why=(
                "The offline half at size: log load, candidate generation over shared "
                "hot queries, IPC/ICR selection, compile, publish, incremental refresh; "
                "the serving half is small, so mining changes show here only."
            ),
            scenario={"entities": 500},
            requests=1500,
            cold=False,
            mmap=False,
            churn_every=0,
            deltas=3,
            offline=OfflineShape(entities=2000, hot_queries=120, urls_per_hot=900),
            serving_share=0.25,
        ),
    )
}


# --------------------------------------------------------------------------- #
# Serving half
# --------------------------------------------------------------------------- #


@dataclass
class ServingInputs:
    scenario: Scenario
    catalog: Catalog
    requests: list[Request]
    requests_sha256: str
    catalog_sha256: str
    # rows[k] is the catalog at generation k (0 = the compiled base; k >= 1
    # = after the k-th chained mutate_rows delta).
    rows: list[list[dict[str, Any]]]


def request_list_sha256(requests: Sequence[Request]) -> str:
    digest = hashlib.sha256()
    for request in requests:
        digest.update(request.endpoint.encode("utf-8"))
        for query in request.queries:
            digest.update(b"\t" + query.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def build_serving_inputs(workload: Workload, seed: int) -> ServingInputs:
    scenario = Scenario(name=workload.name, seed=seed, **workload.scenario)
    if scenario.dirty_fraction == 0.0:
        # Every workload measures delta visibility; 1% is the churn default.
        scenario = scenario.with_overrides(dirty_fraction=0.01)
    catalog = build_catalog(scenario)
    requests = list(itertools.islice(request_stream(scenario, catalog), workload.requests))
    rows: list[list[dict[str, Any]]] = [[dict(row) for row in catalog.rows]]
    for generation in range(1, workload.deltas + 1):
        rows.append(mutate_rows(rows[-1], scenario, generation=generation))
    return ServingInputs(
        scenario=scenario,
        catalog=catalog,
        requests=requests,
        requests_sha256=request_list_sha256(requests),
        catalog_sha256=catalog_fingerprint(catalog.rows),
        rows=rows,
    )


# --------------------------------------------------------------------------- #
# Offline half
# --------------------------------------------------------------------------- #

_HUB_URLS = 400
_FILLER_URLS = 6_000
_HUBS_PER_ENTITY = 4
_HUBS_PER_HOT_QUERY = 30


@dataclass
class OfflineInputs:
    search_path: Path
    clicks_path: Path
    values: list[str]
    catalog: EntityCatalog
    logs_sha256: str
    # Clicks that dirty a seeded 1% slice of the catalog (incremental refresh).
    dirty_clicks: list[ClickRecord]


def _shared_candidate_logs(
    shape: OfflineShape, seed: int
) -> tuple[SearchLog, ClickLog, list[str]]:
    """Logs where broad head queries recur as candidates of many entities.

    Same generator as ``benchmarks/test_bench_batch_scaling.py`` (copied so
    this package stands alone): every entity's surrogate set mixes its own
    pages with a few hub pages, and each hot query clicks a wide URL
    footprint crossing many hubs, so the same hot queries are scored
    against thousands of entities.  The paper worlds are unsuitable as
    load: ``build_world(cameras)`` takes 25 s to build and 0.15 s to mine.
    """
    rng = random.Random(f"{seed}:offline-logs")
    hub_urls = [f"https://hub{h}.example/page" for h in range(_HUB_URLS)]
    filler_urls = [f"https://misc{m}.example/page" for m in range(_FILLER_URLS)]
    search: list[tuple[str, str, int]] = []
    clicks: list[tuple[str, str, int]] = []
    values: list[str] = []
    for i in range(shape.entities):
        canonical = f"entity number {i:04d}"
        values.append(canonical)
        own = [f"https://site{i}.example/p{j}" for j in range(6)]
        surrogates = own + rng.sample(hub_urls, _HUBS_PER_ENTITY)
        for rank, url in enumerate(surrogates, start=1):
            search.append((canonical, url, rank))
        for a in range(3):
            alias = f"alias {a} of {i:04d}"
            for url in own[:4]:
                clicks.append((alias, url, rng.randint(5, 30)))
        clicks.append((canonical, own[0], rng.randint(1, 10)))
    for h in range(shape.hot_queries):
        query = f"hot query {h:03d}"
        urls = rng.sample(hub_urls, _HUBS_PER_HOT_QUERY) + rng.sample(
            filler_urls, shape.urls_per_hot - _HUBS_PER_HOT_QUERY
        )
        for url in urls:
            clicks.append((query, url, rng.randint(1, 20)))
    return SearchLog.from_tuples(search), ClickLog.from_tuples(clicks), values


def build_offline_inputs(workload: Workload, seed: int, workdir: Path) -> OfflineInputs:
    """Synthesize the logs and write them as JSONL (what a miner job reads)."""
    shape = workload.offline
    search_log, click_log, values = _shared_candidate_logs(shape, seed)
    search_path = workdir / "search.jsonl"
    clicks_path = workdir / "clicks.jsonl"
    write_jsonl(search_path, search_log.iter_records())
    write_jsonl(clicks_path, click_log.iter_records())
    digest = hashlib.sha256()
    for path in (search_path, clicks_path):
        digest.update(path.read_bytes())
    rng = random.Random(f"{seed}:offline-dirty")
    dirty = sorted(rng.sample(range(shape.entities), max(1, shape.entities // 100)))
    return OfflineInputs(
        search_path=search_path,
        clicks_path=clicks_path,
        values=values,
        catalog=EntityCatalog(
            "bench",
            [
                Entity(entity_id=f"e-{i:05d}", canonical_name=value, domain="bench")
                for i, value in enumerate(values)
            ],
        ),
        logs_sha256=digest.hexdigest(),
        dirty_clicks=[
            ClickRecord(f"alias 0 of {i:04d}", f"https://site{i}.example/p0", 7)
            for i in dirty
        ],
    )
