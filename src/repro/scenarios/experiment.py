"""Experiment runner: drive a live daemon with a scenario's workload.

An :class:`Experiment` compiles the scenario's catalog into a real
artifact, boots a real :class:`~repro.server.daemon.MatchDaemon` (or a
``--procs N`` :class:`~repro.server.supervisor.ServerSupervisor` group),
drives it **over the wire** with
:class:`~repro.server.client.ServerClient`, republishes chained delta
sidecars mid-run when the scenario calls for churn, and writes one
versioned JSON result per run.  (The gated performance record is
``benchmarks/perf`` + ``BENCHMARK.json``; a scenario result is a
replayable observation, not a ledger row.)

Two honesty rules shape the design:

* Latency is measured client-side per request *and* scraped from the
  server's own ``/stats`` histograms at the end — a result file carries
  both, so wire overhead and server-side service time stay separable.
* Delta publishes are gated on the served artifact version having caught
  up with the previous publish (checked via ``/healthz``), exactly like
  a careful production publisher: the single watched sidecar path means
  an eager overwrite would be silently skipped as a base mismatch.

Result files embed the full scenario spec plus workload fingerprints
(:func:`~repro.scenarios.workload.stream_fingerprint` over a fixed-size
stream prefix), so ``scenario compare`` can both diff metrics and prove
two runs measured the same workload.
"""

from __future__ import annotations

import http.client
import json
import math
import platform
import time
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.scenarios.spec import Scenario
from repro.scenarios.workload import (
    Catalog,
    Request,
    build_catalog,
    catalog_fingerprint,
    click_log_from_rows,
    entries_from_rows,
    mutate_rows,
    request_stream,
    stream_fingerprint,
)
from repro.server.client import ServerClient, ServerError
from repro.serving.artifact import SynonymArtifact, compile_dictionary
from repro.serving.delta import DictionaryDelta, delta_path_for, diff_delta

__all__ = [
    "Experiment",
    "RESULT_FORMAT",
    "RESULT_KIND",
    "compare_results",
    "load_result",
    "render_comparison",
    "write_result",
]

RESULT_FORMAT = 1
RESULT_KIND = "scenario-result"
COMPARISON_KIND = "scenario-comparison"

# How long to wait, after driving stops, for the served artifact to catch
# up with the last published delta (watcher polls are asynchronous).
_CATCHUP_TIMEOUT_S = 10.0


def _percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile (same convention as the daemon's /stats)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[rank - 1]


def _summarize_latencies(samples_ms: list[float]) -> dict[str, Any]:
    ordered = sorted(samples_ms)
    return {
        "count": len(ordered),
        "p50_ms": round(_percentile(ordered, 0.50), 3),
        "p90_ms": round(_percentile(ordered, 0.90), 3),
        "p99_ms": round(_percentile(ordered, 0.99), 3),
        "max_ms": round(ordered[-1], 3) if ordered else 0.0,
    }


class Experiment:
    """Run one scenario against a live daemon and collect a result dict.

    Parameters
    ----------
    scenario:
        The workload spec (possibly with CLI overrides already applied).
    workdir:
        Directory for the compiled artifact and delta sidecars; created
        if missing.  One experiment owns it exclusively while running.
    procs:
        1 boots an in-process :class:`MatchDaemon`; >1 boots a
        ``SO_REUSEPORT`` :class:`ServerSupervisor` worker group.
    watch_interval:
        Artifact watcher poll interval for the booted server(s); the
        default is deliberately tight so delta churn scenarios converge
        within CI-friendly durations.
    """

    def __init__(
        self,
        scenario: Scenario,
        *,
        workdir: str | Path,
        procs: int = 1,
        watch_interval: float = 0.1,
        log: Callable[[str], None] | None = None,
    ) -> None:
        if procs < 1:
            raise ValueError(f"procs must be >= 1, got {procs}")
        self.scenario = scenario
        self.workdir = Path(workdir)
        self.procs = procs
        self.watch_interval = watch_interval
        self._log = log or (lambda message: None)
        self._artifact_path = self.workdir / "catalog.artifact"
        # Delta-publisher state: the driver tracks the artifact state it
        # last published so each generation diffs against the previous
        # one (chained deltas), never against a stale base.
        self._base: SynonymArtifact | None = None
        self._rows: list[dict[str, Any]] = []
        self._generation = 0
        self._published_version = ""
        self._last_publish = 0.0
        self._deltas_published = 0

    # ------------------------------------------------------------------ #
    # Workload publication
    # ------------------------------------------------------------------ #

    def _compile_initial(self, catalog: Catalog) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._rows = [dict(row) for row in catalog.rows]
        compile_dictionary(
            entries_from_rows(self._rows),
            self._artifact_path,
            version="gen-0",
            click_log=click_log_from_rows(self._rows),
        )
        self._base = SynonymArtifact.load(self._artifact_path)
        self._published_version = "gen-0"

    def _maybe_publish_delta(self, admin: ServerClient, now: float) -> None:
        """Publish the next chained delta once the cadence fires.

        Gated on the admin worker serving the previous publish: the
        daemon watches exactly one sidecar path, so overwriting it before
        the swap would strand that generation (skipped as base-mismatch).
        """
        scenario = self.scenario
        if scenario.delta_every_s <= 0:
            return
        if now - self._last_publish < scenario.delta_every_s:
            return
        try:
            served = admin.healthz().get("artifact_version")
        except (ServerError, OSError, http.client.HTTPException):
            admin.close()
            return
        if served != self._published_version:
            return  # previous generation not swapped in yet
        assert self._base is not None
        generation = self._generation + 1
        version = f"gen-{generation}"
        rows = mutate_rows(self._rows, scenario, generation=generation)
        sidecar = delta_path_for(self._artifact_path)
        diff_delta(
            self._base,
            entries_from_rows(rows),
            sidecar,
            version=version,
            click_log=click_log_from_rows(rows),
        )
        self._base = self._base.apply_delta(DictionaryDelta.load(sidecar))
        self._rows = rows
        self._generation = generation
        self._published_version = version
        self._last_publish = now
        self._deltas_published += 1
        self._log(f"published delta {version} ({len(rows)} rows)")

    def _await_catchup(self, admin: ServerClient) -> bool:
        """Wait for the admin worker to serve the last published version."""
        if self._deltas_published == 0:
            return True
        deadline = time.monotonic() + _CATCHUP_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                if admin.healthz().get("artifact_version") == self._published_version:
                    return True
            except (ServerError, OSError, http.client.HTTPException):
                admin.close()
            time.sleep(self.watch_interval)
        return False

    # ------------------------------------------------------------------ #
    # Driving
    # ------------------------------------------------------------------ #

    def _in_burst(self, elapsed: float) -> bool:
        scenario = self.scenario
        if scenario.burst_every_s <= 0 or scenario.burst_duration_s <= 0:
            return False
        return (elapsed % scenario.burst_every_s) < scenario.burst_duration_s

    def _drive_repeat(
        self, client: ServerClient, admin: ServerClient, repeat: int, catalog: Catalog
    ) -> dict[str, Any]:
        scenario = self.scenario
        plan: Iterator[Request] = request_stream(scenario, catalog, repeat=repeat)
        latencies: dict[str, list[float]] = {"match": [], "resolve": []}
        requests = queries = errors = 0
        start = time.monotonic()
        deadline = start + scenario.duration_s
        next_send = start
        while True:
            now = time.monotonic()
            if now >= deadline:
                break
            if scenario.qps > 0:
                if next_send > now:
                    time.sleep(min(next_send - now, deadline - now))
                    if time.monotonic() >= deadline:
                        break
                rate = scenario.qps * (
                    scenario.burst_factor if self._in_burst(now - start) else 1.0
                )
                next_send = max(next_send, now) + 1.0 / rate
            request = next(plan)
            began = time.perf_counter()
            try:
                if request.endpoint == "resolve":
                    if request.batched:
                        client.resolve_many(request.queries)
                    else:
                        client.resolve(request.queries[0])
                else:
                    if request.batched:
                        client.match_many(request.queries)
                    else:
                        client.match(request.queries[0])
            except (ServerError, OSError, http.client.HTTPException):
                errors += 1
                client.close()  # force a clean reconnect on the next request
            else:
                latencies[request.endpoint].append(
                    (time.perf_counter() - began) * 1000.0
                )
            requests += 1
            queries += len(request.queries)
            self._maybe_publish_delta(admin, time.monotonic())
        elapsed = time.monotonic() - start
        return {
            "repeat": repeat,
            "requests": requests,
            "queries": queries,
            "errors": errors,
            "duration_s": round(elapsed, 3),
            "throughput_rps": round(requests / elapsed, 1) if elapsed > 0 else 0.0,
            "queries_per_s": round(queries / elapsed, 1) if elapsed > 0 else 0.0,
            "latency_ms": {
                endpoint: _summarize_latencies(samples)
                for endpoint, samples in latencies.items()
            },
            "query_stream_sha256": stream_fingerprint(scenario, catalog, repeat=repeat),
        }

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def _boot(self) -> tuple[str, int, Callable[[], None]]:
        """Start the server(s); returns (host, port, shutdown)."""
        from repro.server import MatchDaemon, ServerSupervisor

        options: dict[str, Any] = {"port": 0, "watch_interval": self.watch_interval}
        if self.procs == 1:
            daemon = MatchDaemon(self._artifact_path, **options).start()
            return daemon.host, daemon.port, daemon.stop
        supervisor = ServerSupervisor(
            self._artifact_path, procs=self.procs, **options
        ).start()
        return supervisor.host, supervisor.port, supervisor.shutdown

    def run(self) -> dict[str, Any]:
        """Execute every repeat and return the result payload."""
        scenario = self.scenario
        catalog = build_catalog(scenario)
        self._compile_initial(catalog)
        self._log(
            f"scenario {scenario.name}: {scenario.entities} entities, "
            f"{len(catalog.rows)} rows, {scenario.repeats} x {scenario.duration_s:g}s, "
            f"procs={self.procs}"
        )
        host, port, shutdown = self._boot()
        repeats: list[dict[str, Any]] = []
        caught_up = True
        try:
            with ServerClient(host, port) as admin, ServerClient(host, port) as client:
                admin.wait_until_ready(timeout=30.0)
                self._last_publish = time.monotonic()
                for repeat in range(scenario.repeats):
                    if scenario.cold_start:
                        # Server-side reload: rebuilds the service state
                        # and empties the match cache — every repeat
                        # starts from a cold cache like a fresh boot.
                        admin.reload()
                    repeats.append(
                        self._drive_repeat(client, admin, repeat, catalog)
                    )
                    self._log(
                        f"repeat {repeat}: {repeats[-1]['requests']} requests, "
                        f"{repeats[-1]['errors']} errors"
                    )
                caught_up = self._await_catchup(admin)
                stats = admin.stats()
        finally:
            shutdown()
        return self._build_result(catalog, repeats, stats, caught_up)

    def _build_result(
        self,
        catalog: Catalog,
        repeats: list[dict[str, Any]],
        stats: dict[str, Any],
        caught_up: bool,
    ) -> dict[str, Any]:
        scenario = self.scenario
        total_requests = sum(repeat["requests"] for repeat in repeats)
        total_queries = sum(repeat["queries"] for repeat in repeats)
        total_errors = sum(repeat["errors"] for repeat in repeats)
        total_time = sum(repeat["duration_s"] for repeat in repeats)
        service = stats.get("service", {})
        return {
            "format": RESULT_FORMAT,
            "kind": RESULT_KIND,
            "created_unix": round(time.time(), 3),
            "scenario": scenario.to_dict(),
            "run": {
                "procs": self.procs,
                "watch_interval_s": self.watch_interval,
                "python": platform.python_version(),
                "platform": platform.platform(),
            },
            "workload": {
                "catalog_sha256": catalog_fingerprint(catalog.rows),
                "rows": len(catalog.rows),
                "aliases": len(catalog.aliases),
                "multilingual_entities": catalog.multilingual_entities,
                "query_stream_sha256": [
                    repeat["query_stream_sha256"] for repeat in repeats
                ],
            },
            "repeats": repeats,
            "summary": {
                "requests": total_requests,
                "queries": total_queries,
                "errors": total_errors,
                "throughput_rps": (
                    round(total_requests / total_time, 1) if total_time > 0 else 0.0
                ),
                "queries_per_s": (
                    round(total_queries / total_time, 1) if total_time > 0 else 0.0
                ),
                "deltas_published": self._deltas_published,
                "deltas_caught_up": caught_up,
                "server": {
                    "requests": stats.get("server", {}).get("requests", {}),
                    "errors": stats.get("server", {}).get("errors", {}),
                    "latency": stats.get("latency", {}),
                    "reloads": service.get("reloads", 0),
                    "deltas_applied": service.get("deltas_applied", 0),
                    "deltas_skipped": service.get("deltas_skipped", 0),
                    "cache_hit_rate": service.get("hit_rate", 0.0),
                    "artifact_version": stats.get("artifact", {}).get("version"),
                },
            },
        }


# ---------------------------------------------------------------------- #
# Result files and comparison
# ---------------------------------------------------------------------- #


def write_result(result: dict[str, Any], path: str | Path) -> Path:
    """Write a result payload as stable, diff-friendly JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(result, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    return path


def load_result(path: str | Path) -> dict[str, Any]:
    """Load + validate a result file written by :func:`write_result`."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("kind") != RESULT_KIND:
        raise ValueError(f"{path}: not a scenario result (kind={payload.get('kind')!r})")
    if payload.get("format") != RESULT_FORMAT:
        raise ValueError(
            f"{path}: unsupported result format {payload.get('format')!r} "
            f"(expected {RESULT_FORMAT})"
        )
    for key in ("scenario", "workload", "repeats", "summary"):
        if key not in payload:
            raise ValueError(f"{path}: malformed result, missing {key!r}")
    return payload


def _comparison_metrics(result: dict[str, Any]) -> dict[str, float]:
    summary = result["summary"]
    metrics: dict[str, float] = {
        "throughput_rps": summary.get("throughput_rps", 0.0),
        "queries_per_s": summary.get("queries_per_s", 0.0),
        "errors": summary.get("errors", 0),
        "deltas_published": summary.get("deltas_published", 0),
        "server.deltas_applied": summary["server"].get("deltas_applied", 0),
        "server.reloads": summary["server"].get("reloads", 0),
        "server.cache_hit_rate": round(summary["server"].get("cache_hit_rate", 0.0), 4),
    }
    latency: dict[str, list[float]] = {}
    for repeat in result["repeats"]:
        for endpoint, summary_ms in repeat["latency_ms"].items():
            if summary_ms["count"] == 0:
                continue
            for quantile in ("p50_ms", "p90_ms", "p99_ms"):
                metrics_key = f"client.{endpoint}.{quantile}"
                latency.setdefault(metrics_key, []).append(summary_ms[quantile])
    for metrics_key, values in latency.items():
        metrics[metrics_key] = round(sum(values) / len(values), 3)
    return metrics


def compare_results(a: dict[str, Any], b: dict[str, Any]) -> dict[str, Any]:
    """Structured diff of two result payloads (same schema, any scenario)."""
    metrics_a = _comparison_metrics(a)
    metrics_b = _comparison_metrics(b)
    comparison: dict[str, Any] = {
        "kind": COMPARISON_KIND,
        "format": RESULT_FORMAT,
        "scenario_a": a["scenario"]["name"],
        "scenario_b": b["scenario"]["name"],
        "same_scenario": a["scenario"] == b["scenario"],
        "same_workload": (
            a["workload"]["catalog_sha256"] == b["workload"]["catalog_sha256"]
            and a["workload"]["query_stream_sha256"]
            == b["workload"]["query_stream_sha256"]
        ),
        "metrics": {},
    }
    for name in sorted(set(metrics_a) | set(metrics_b)):
        value_a = metrics_a.get(name)
        value_b = metrics_b.get(name)
        entry: dict[str, Any] = {"a": value_a, "b": value_b}
        if isinstance(value_a, (int, float)) and isinstance(value_b, (int, float)):
            entry["delta"] = round(value_b - value_a, 3)
            entry["ratio"] = round(value_b / value_a, 3) if value_a else None
        comparison["metrics"][name] = entry
    return comparison


def render_comparison(comparison: dict[str, Any]) -> str:
    """Human-readable table for ``scenario compare``."""
    lines = [
        f"scenario A: {comparison['scenario_a']}   "
        f"scenario B: {comparison['scenario_b']}",
        "same scenario spec: {}   same workload: {}".format(
            "yes" if comparison["same_scenario"] else "no",
            "yes" if comparison["same_workload"] else "no",
        ),
        f"{'metric':<28} {'A':>12} {'B':>12} {'delta':>10} {'ratio':>7}",
    ]
    for name, entry in comparison["metrics"].items():
        delta = entry.get("delta")
        ratio = entry.get("ratio")
        lines.append(
            f"{name:<28} {entry['a']!s:>12} {entry['b']!s:>12} "
            f"{('%+.3f' % delta) if delta is not None else '-':>10} "
            f"{('%.2fx' % ratio) if ratio is not None else '-':>7}"
        )
    return "\n".join(lines)
