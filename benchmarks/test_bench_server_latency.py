"""Match-daemon latency benchmark: p50/p99 over the wire on one core.

Not a paper artifact: this backs the :mod:`repro.server` subsystem's
acceptance criterion — a production-shaped (zipfian) query mix served over
HTTP by the long-lived daemon must answer with single-digit-millisecond
typical latency.  The load generator is the real client
(:class:`~repro.server.client.ServerClient`, keep-alive connection), so the
measured number includes JSON encoding, the socket round trip and the
daemon's request threading — everything a caller would see.

The asserted floors are deliberately loose (p50 ≤ 50 ms, p99 ≤ 250 ms):
they hold with a wide margin on the single-core CI container (see
``benchmarks/results/server_latency.txt`` for measured numbers, typically
two orders of magnitude below the ceiling) while still catching a
regression that makes the daemon do per-request work proportional to the
dictionary.  The floors are measured **with the per-endpoint latency
histograms recording** (they always are), and a separate micro-assert pins
the cost of one histogram record at ≤ 20% of the measured single-query
p50 — observability must never become the serving cost.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.cli import _dictionary_from_synonyms
from repro.clicklog.log import ClickLog
from repro.clicklog.records import ClickRecord
from repro.serving.artifact import compile_dictionary
from repro.server.client import ServerClient
from repro.storage.jsonl import write_jsonl

from benchmarks.conftest import write_result
from benchmarks.perf.stats import percentile
from benchmarks.test_bench_match_throughput import build_synonym_rows
from tests.conftest import start_daemon

ENTITIES = 1_500
SYNONYMS_PER_ENTITY = 3
WARMUP_REQUESTS = 50
MATCH_REQUESTS = 500
RESOLVE_REQUESTS = 150
BATCH_SIZE = 200

P50_FLOOR_MS = 50.0
P99_FLOOR_MS = 250.0
HISTOGRAM_RECORD_SAMPLES = 20_000
HISTOGRAM_OVERHEAD_CEILING = 0.20  # of the measured single-query p50


def build_zipf_queries(rows: list[dict], *, size: int, seed: int = 41) -> list[str]:
    """A zipfian query mix: the head dominates, the tail is long.

    Entity rank r is drawn with weight 1/(r+1) — the same head-heavy shape
    a live query stream has, which is what makes the daemon's LRU earn its
    keep.  20% of draws append context words, 10% are misses.
    """
    rng = random.Random(seed)
    synonyms = [row["synonym"] for row in rows]
    weights = [1.0 / (rank + 1) for rank in range(len(synonyms))]
    picks = rng.choices(range(len(synonyms)), weights=weights, k=size)
    queries = []
    for pick in picks:
        kind = rng.random()
        if kind < 0.70:
            queries.append(synonyms[pick])
        elif kind < 0.90:
            queries.append(f"{synonyms[pick]} showtimes near me")
        else:
            queries.append(f"no such thing {rng.randrange(100_000)}")
    return queries


@pytest.fixture(scope="module")
def server_setup(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("server-latency")
    rows = build_synonym_rows(entities=ENTITIES, per_entity=SYNONYMS_PER_ENTITY, seed=17)
    jsonl_path = workdir / "synonyms.jsonl"
    write_jsonl(jsonl_path, rows)
    # Click volume for the priors block, so /resolve measures the full
    # ranked path rather than the uniform degenerate case.
    click_log = ClickLog(
        ClickRecord(row["synonym"], f"https://bench.example/{row['canonical']}", row["clicks"])
        for row in rows
    )
    artifact_path = workdir / "dict.synart"
    compile_dictionary(
        _dictionary_from_synonyms(jsonl_path), artifact_path, click_log=click_log
    )
    # The shared spin-up helper (free port + EADDRINUSE retry): a busy
    # ephemeral port no longer flakes the whole benchmark module.
    daemon = start_daemon(artifact_path, watch_interval=0, max_batch=BATCH_SIZE)
    yield rows, daemon
    daemon.stop()


class TestServerLatency:
    def test_p50_p99_floors_over_zipfian_mix(self, server_setup, results_dir):
        rows, daemon = server_setup
        with ServerClient(daemon.host, daemon.port) as client:
            client.wait_until_ready()

            for query in build_zipf_queries(rows, size=WARMUP_REQUESTS, seed=7):
                client.match(query)

            match_queries = build_zipf_queries(rows, size=MATCH_REQUESTS)
            match_latencies = []
            matched = 0
            for query in match_queries:
                started = time.perf_counter()
                payload = client.match(query)
                match_latencies.append(time.perf_counter() - started)
                matched += bool(payload["matched"])

            resolve_queries = build_zipf_queries(rows, size=RESOLVE_REQUESTS, seed=43)
            resolve_latencies = []
            for query in resolve_queries:
                started = time.perf_counter()
                client.resolve(query)
                resolve_latencies.append(time.perf_counter() - started)

            batch = build_zipf_queries(rows, size=BATCH_SIZE, seed=47)
            started = time.perf_counter()
            batch_results = client.match_many(batch)
            batch_s = time.perf_counter() - started
            assert len(batch_results) == BATCH_SIZE

            stats = client.stats()

        match_latencies.sort()
        resolve_latencies.sort()
        match_p50 = percentile(match_latencies, 50) * 1e3
        match_p99 = percentile(match_latencies, 99) * 1e3
        resolve_p50 = percentile(resolve_latencies, 50) * 1e3
        resolve_p99 = percentile(resolve_latencies, 99) * 1e3

        # The daemon's own histograms saw the same traffic: /stats must
        # report the production shape for every endpoint exercised above.
        latency = stats["latency"]
        assert latency["match"]["count"] >= MATCH_REQUESTS
        assert latency["resolve"]["count"] >= RESOLVE_REQUESTS
        for endpoint in ("match", "resolve"):
            summary = latency[endpoint]
            assert set(summary) == {"count", "p50_ms", "p90_ms", "p99_ms", "max_ms"}
            assert 0 < summary["p50_ms"] <= summary["p90_ms"] <= summary["p99_ms"]

        # Histogram-recording overhead: one record() — the only work the
        # histograms add per request — must cost ≤ 20% of the measured
        # single-query p50, i.e. the floors above hold *because of* cheap
        # observability, not despite disabling it.
        from repro.server.metrics import LatencyHistogram

        hist = LatencyHistogram()
        record = hist.record
        started = time.perf_counter()
        for _ in range(HISTOGRAM_RECORD_SAMPLES):
            record(0.00123)
        record_s = (time.perf_counter() - started) / HISTOGRAM_RECORD_SAMPLES
        overhead_fraction = record_s / (match_p50 / 1e3)

        lines = [
            "Match daemon latency — zipfian mix over HTTP (single keep-alive client)",
            f"  dictionary                {stats['artifact']['entries']} entries "
            f"({ENTITIES} entities x {SYNONYMS_PER_ENTITY} synonyms + canonicals), "
            f"priors embedded",
            f"  /match   requests         {len(match_latencies)}  "
            f"({matched}/{len(match_latencies)} matched)",
            f"  /match   p50 / p99 / max  {match_p50:7.3f} / {match_p99:7.3f} / "
            f"{match_latencies[-1] * 1e3:7.3f} ms",
            f"  /resolve requests         {len(resolve_latencies)}",
            f"  /resolve p50 / p99 / max  {resolve_p50:7.3f} / {resolve_p99:7.3f} / "
            f"{resolve_latencies[-1] * 1e3:7.3f} ms",
            f"  /match batched ({BATCH_SIZE})      {batch_s * 1e3:7.3f} ms total  "
            f"({BATCH_SIZE / batch_s:8.0f} queries/s in one request)",
            f"  service cache hit rate    {stats['service']['hit_rate']:.1%} "
            f"({stats['service']['cache_hits']}/{stats['service']['queries']} queries)",
            f"  /stats latency histogram  match p50/p99 "
            f"{latency['match']['p50_ms']:7.3f} / {latency['match']['p99_ms']:7.3f} ms "
            f"({latency['match']['count']} samples, server-side)",
            f"  histogram record() cost   {record_s * 1e6:7.3f} us "
            f"({overhead_fraction:.2%} of measured p50; ceiling "
            f"{HISTOGRAM_OVERHEAD_CEILING:.0%})",
            f"  asserted floors           p50 <= {P50_FLOOR_MS:g} ms, "
            f"p99 <= {P99_FLOOR_MS:g} ms (both endpoints, histograms on)",
        ]
        write_result(results_dir, "server_latency.txt", "\n".join(lines))

        assert match_p50 <= P50_FLOOR_MS, "\n".join(lines)
        assert match_p99 <= P99_FLOOR_MS, "\n".join(lines)
        assert resolve_p50 <= P50_FLOOR_MS, "\n".join(lines)
        assert resolve_p99 <= P99_FLOOR_MS, "\n".join(lines)
        assert overhead_fraction <= HISTOGRAM_OVERHEAD_CEILING, "\n".join(lines)
