"""The serving half: a closed-loop replay against a live daemon subprocess.

One :class:`ServerClient` on one keep-alive connection replays the
workload's fixed request list in every timed repeat, so per-repeat work
and all counts are identical and timing differences are pure noise.
Responses are kept and checked against the oracle after the timed loop.
"""

from __future__ import annotations

import http.client
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from repro.scenarios.workload import Request, click_log_from_rows, dictionary_from_rows
from repro.server.client import ServerClient, ServerError
from repro.serving.artifact import SynonymArtifact, compile_dictionary
from repro.serving.delta import DictionaryDelta, delta_path_for, diff_delta

from benchmarks.perf.daemon import DaemonProcess
from benchmarks.perf.oracle import Oracle, check_response
from benchmarks.perf.protocol import (
    REFERENCE_CPU_PROBE_S,
    REFERENCE_HTTP_PROBE_S,
    ReferenceServer,
    cpu_probe_s,
    cpu_slowdown,
    record_timed,
    repeat_until,
)
from benchmarks.perf.stats import median, percentile, tail_percentile
from benchmarks.perf.workloads import ServingInputs, Workload

__all__ = [
    "Generation",
    "ServingResult",
    "build_generations",
    "publish_bytes",
    "run_serving",
]

SETUP_SAMPLES = 5
IDLE_VISIBILITY_ROUNDS = 4
HEALTHZ_SAMPLES = 200
# Tight enough that poll jitter is small beside the apply it waits for,
# loose enough that the watcher's two stat() calls stay far below 1% CPU.
WATCH_INTERVAL_S = 0.005
_VISIBLE_TIMEOUT_S = 10.0
_WIRE_ERRORS = (ServerError, OSError, http.client.HTTPException)
_FAILED = object()


@dataclass
class Generation:
    """One published catalog state: its bytes on disk and its oracle."""

    version: str
    payload: bytes  # full artifact for generation 0, delta sidecar after
    oracle: Oracle
    probes: list[Request]  # requests whose answers this generation introduces


@dataclass
class ServingResult:
    # metric name -> one value per repeat (or per sample for setup_s / RSS).
    series: dict[str, list[float]] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    percentile_used: int = 99
    sent: int = 0
    failed: int = 0
    # Layer-side observations the traced report uses.
    extras: dict[str, float] = field(default_factory=dict)
    entries: int = 0
    artifact_bytes: int = 0


def publish_bytes(path: Path, payload: bytes) -> None:
    """Atomic, durable publish: temp file, fsync, rename, directory fsync."""
    temp = path.with_name(f".{path.name}.{os.getpid()}.publish")
    with open(temp, "wb") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, path)
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def build_generations(
    inputs: ServingInputs, workdir: Path, *, prime_all: bool
) -> tuple[list[Generation], dict[str, list[float]]]:
    """Compile generation 0 and diff the chained deltas, once, untimed.

    The timed loops republish these exact bytes, so the publisher's own
    work never sits inside a measurement and every repeat hands the
    daemon identical files.  Returns the generations plus the compile /
    diff timings the per-layer report uses.
    """
    build_dir = workdir / "build"
    build_dir.mkdir()
    path = build_dir / "catalog.synart"
    sidecar = delta_path_for(path)
    timings: dict[str, list[float]] = {"serving.diff_delta_ms": []}
    generations: list[Generation] = []
    base: SynonymArtifact | None = None
    for index, rows in enumerate(inputs.rows):
        dictionary = dictionary_from_rows(rows)
        click_log = click_log_from_rows(rows)
        version = f"gen-{index}"
        if index == 0:
            compile_dictionary(dictionary, path, version=version, click_log=click_log)
            base = SynonymArtifact.load(path)
            payload = path.read_bytes()
            probes: list[Request] = []
        else:
            assert base is not None
            began = time.perf_counter()
            diff_delta(base, dictionary, sidecar, version=version, click_log=click_log)
            timings["serving.diff_delta_ms"].append((time.perf_counter() - began) * 1e3)
            base = base.apply_delta(DictionaryDelta.load(sidecar))
            payload = sidecar.read_bytes()
            added = rows[len(inputs.rows[index - 1]):]
            probes = [
                Request(endpoint, (row["synonym"],))
                for row in added
                for endpoint in ("match", "resolve")
            ]
        oracle = Oracle(dictionary, click_log)
        if index == 0 or prime_all:
            oracle.prime(inputs.requests)
        oracle.prime(probes)
        generations.append(Generation(version, payload, oracle, probes))
    full_bytes = len(generations[0].payload)
    timings["serving.delta_bytes_ratio"] = [
        len(generation.payload) / full_bytes for generation in generations[1:]
    ]
    return generations, timings


def _send(client: ServerClient, request: Request) -> Any:
    if request.endpoint == "resolve":
        if request.batched:
            return client.resolve_many(request.queries)
        return client.resolve(request.queries[0])
    if request.batched:
        return client.match_many(request.queries)
    return client.match(request.queries[0])


def _kind(request: Request) -> str:
    if request.batched:
        return "batch" if request.endpoint == "match" else "resolve_batch"
    return request.endpoint


@dataclass
class _RepeatSample:
    latencies_ms: dict[str, list[float]]
    timed_s: float
    server_cpu_s: float
    client_cpu_s: float
    visible_ms: list[float]
    sent: int
    failed: int
    cpu_slowdown: float = 1.0
    http_slowdown: float = 1.0


class _Driver:
    """Owns the live daemon, the two connections and the publish state."""

    def __init__(
        self,
        workload: Workload,
        inputs: ServingInputs,
        generations: Sequence[Generation],
        daemon: DaemonProcess,
        reference: ReferenceServer,
    ) -> None:
        self.workload = workload
        self.reference = reference
        self.requests = inputs.requests
        self.generations = generations
        self.daemon = daemon
        self.path = daemon.artifact
        self.sidecar = delta_path_for(self.path)
        self.client = daemon.client()
        self.admin = daemon.client()

    def close(self) -> None:
        self.client.close()
        self.admin.close()

    # ------------------------------------------------------------------ #
    # Publishing
    # ------------------------------------------------------------------ #

    def _served_version(self) -> str:
        return str(self.admin.healthz().get("artifact_version"))

    def republish_base(self) -> None:
        """Full publish of generation 0; returns once the daemon reloaded it.

        The version label alone cannot prove the reload (the daemon may
        already serve an older ``gen-0``), so the reload counter must move.
        """
        reloads = self.admin.stats()["service"]["reloads"]
        self.sidecar.unlink(missing_ok=True)
        publish_bytes(self.path, self.generations[0].payload)
        deadline = time.monotonic() + _VISIBLE_TIMEOUT_S
        while time.monotonic() < deadline:
            stats = self.admin.stats()
            if (
                stats["service"]["reloads"] > reloads
                and stats["artifact"]["version"] == self.generations[0].version
            ):
                return
            time.sleep(0.002)
        raise RuntimeError("daemon did not reload the republished base artifact")

    def _await_visible(self, generation: int, durable_at: float) -> float:
        """Poll ``/healthz`` until *generation* is served; ms since durable."""
        version = self.generations[generation].version
        deadline = time.monotonic() + _VISIBLE_TIMEOUT_S
        while time.monotonic() < deadline:
            if self._served_version() == version:
                return (time.perf_counter() - durable_at) * 1e3
            time.sleep(0.001)
        raise RuntimeError(f"delta {version} not visible within {_VISIBLE_TIMEOUT_S:g}s")

    # ------------------------------------------------------------------ #
    # One replay of the request list
    # ------------------------------------------------------------------ #

    def replay(self) -> _RepeatSample:
        client = self.client
        churn_every = self.workload.churn_every
        last_generation = len(self.generations) - 1
        latencies: dict[str, list[float]] = {
            "match": [], "resolve": [], "batch": [], "resolve_batch": []
        }  # fmt: skip
        answered: list[tuple[Request, Any, tuple[int, ...]]] = []
        visible_ms: list[float] = []
        current = 0
        pending: int | None = None
        durable_at = 0.0
        excluded = 0.0
        failed = 0
        server_cpu = self.daemon.cpu_seconds()
        client_cpu = time.process_time()
        started = time.perf_counter()
        for index, request in enumerate(self.requests):
            began = time.perf_counter()
            try:
                response = _send(client, request)
            except _WIRE_ERRORS:
                response = _FAILED
                client.close()
            ended = time.perf_counter()
            latencies[_kind(request)].append((ended - began) * 1e3)
            answered.append(
                (request, response, (current,) if pending is None else (current, pending))
            )
            if not churn_every:
                continue
            # Publishing and visibility polling are the benchmark's own
            # work between requests: excluded from the timed seconds.
            if pending is not None:
                if self._served_version() == self.generations[pending].version:
                    visible_ms.append((time.perf_counter() - durable_at) * 1e3)
                    current, pending = pending, None
                excluded += time.perf_counter() - ended
            elif (index + 1) % churn_every == 0 and current < last_generation:
                pending = current + 1
                publish_bytes(self.sidecar, self.generations[pending].payload)
                durable_at = time.perf_counter()
                excluded += durable_at - ended
        timed_s = time.perf_counter() - started - excluded
        if pending is not None:
            visible_ms.append(self._await_visible(pending, durable_at))
        client_cpu = time.process_time() - client_cpu
        server_cpu = self.daemon.cpu_seconds() - server_cpu
        for request, response, allowed in answered:
            if response is _FAILED or not check_response(
                request, response, [self.generations[g].oracle for g in allowed]
            ):
                failed += 1
        return _RepeatSample(
            latencies_ms=latencies,
            timed_s=timed_s,
            server_cpu_s=server_cpu,
            client_cpu_s=client_cpu,
            visible_ms=visible_ms,
            sent=len(answered),
            failed=failed,
        )

    def timed_repeat(self) -> _RepeatSample:
        if self.workload.churn_every:
            self.republish_base()
        elif self.workload.cold:
            self.admin.reload()
        cpu, rtt = cpu_probe_s(), self.reference.rtt_s()
        sample = self.replay()
        sample.cpu_slowdown = cpu_slowdown(cpu)
        sample.http_slowdown = self.reference.slowdown(rtt)
        return sample

    # ------------------------------------------------------------------ #
    # Delta visibility on the idle daemon (read-only workloads)
    # ------------------------------------------------------------------ #

    def idle_visibility_round(self) -> tuple[list[float], int, int]:
        """One chain of deltas onto a fresh base: (visible ms, sent, failed)."""
        self.republish_base()
        visible_ms: list[float] = []
        sent = failed = 0
        for index in range(1, len(self.generations)):
            generation = self.generations[index]
            publish_bytes(self.sidecar, generation.payload)
            visible_ms.append(self._await_visible(index, time.perf_counter()))
            for probe in generation.probes:
                sent += 1
                try:
                    response = _send(self.client, probe)
                except _WIRE_ERRORS:
                    self.client.close()
                    failed += 1
                    continue
                if not check_response(probe, response, [generation.oracle]):
                    failed += 1
        return visible_ms, sent, failed

    def healthz_rtt_us(self) -> float:
        samples = []
        for _ in range(HEALTHZ_SAMPLES):
            began = time.perf_counter()
            self.client.healthz()
            samples.append((time.perf_counter() - began) * 1e6)
        return median(samples)


def _boot(
    workload: Workload, inputs: ServingInputs, path: Path
) -> tuple[DaemonProcess, float]:
    """The program's own set-up: compile the catalog, boot to first healthy."""
    rows = inputs.rows[0]
    began = time.perf_counter()
    compile_dictionary(
        dictionary_from_rows(rows), path, version="gen-0",
        click_log=click_log_from_rows(rows),
    )  # fmt: skip
    daemon = DaemonProcess(path, mmap=workload.mmap, watch_interval=WATCH_INTERVAL_S).start()
    return daemon, time.perf_counter() - began


def run_serving(
    workload: Workload,
    inputs: ServingInputs,
    generations: Sequence[Generation],
    workdir: Path,
    *,
    repeats: int | None,
    budget_s: float,
) -> ServingResult:
    result = ServingResult()
    serve_dir = workdir / "serve"
    serve_dir.mkdir()
    path = serve_dir / "catalog.synart"
    daemon: DaemonProcess | None = None
    try:
        for _ in range(SETUP_SAMPLES):
            if daemon is not None:
                daemon.stop()
            before = cpu_probe_s()
            daemon, took = _boot(workload, inputs, path)
            record_timed(result.series, "setup_s", took, cpu_slowdown(before))
        assert daemon is not None
        with ReferenceServer() as reference:
            driver = _Driver(workload, inputs, generations, daemon, reference)
            try:
                _measure(driver, result, repeats=repeats, budget_s=budget_s)
            finally:
                driver.close()
    finally:
        if daemon is not None:
            daemon.stop()
    manifest = SynonymArtifact.peek_manifest(path)
    result.entries = int(manifest.counts["entries"])
    result.artifact_bytes = len(generations[0].payload)
    return result


def _measure(
    driver: _Driver, result: ServingResult, *, repeats: int | None, budget_s: float
) -> None:
    workload = driver.workload
    series = result.series
    if not (workload.cold or workload.churn_every):
        warm = driver.replay()  # untimed: fills the LRU and the lazy caches
        result.sent += warm.sent
        result.failed += warm.failed
    samples: list[_RepeatSample] = repeat_until(
        driver.timed_repeat, repeats=repeats, budget_s=budget_s
    )
    for sample in samples:
        result.sent += sample.sent
        result.failed += sample.failed
        wire = sample.http_slowdown
        match = sample.latencies_ms["match"]
        tail, result.percentile_used = tail_percentile(match, 99)
        record_timed(series, "match_p50_ms", median(match), wire)
        record_timed(series, "client.match_p90_ms", percentile(sorted(match), 90), wire)
        record_timed(series, "client.match_p99_ms", tail, wire)
        record_timed(series, "resolve_p50_ms", median(sample.latencies_ms["resolve"]), wire)
        record_timed(series, "batch16_p50_ms", median(sample.latencies_ms["batch"]), wire)
        record_timed(series, "requests_per_s", sample.sent / sample.timed_s, wire, rate=True)
        record_timed(
            series, "server_cpu_us_per_request", sample.server_cpu_s / sample.sent * 1e6, wire
        )
        record_timed(
            series, "client.cpu_us_per_request", sample.client_cpu_s / sample.sent * 1e6, wire
        )
        if sample.visible_ms:
            record_timed(series, "delta_visible_ms", median(sample.visible_ms), sample.cpu_slowdown)
        series.setdefault("bench.cpu_probe_ms", []).append(
            sample.cpu_slowdown * REFERENCE_CPU_PROBE_S * 1e3
        )
        series.setdefault("bench.http_probe_us", []).append(
            sample.http_slowdown * REFERENCE_HTTP_PROBE_S * 1e6
        )
    first = samples[0].latencies_ms
    result.samples.update(
        {
            "match_p50_ms": len(first["match"]),
            "resolve_p50_ms": len(first["resolve"]),
            "batch16_p50_ms": len(first["batch"]),
            "delta_visible_ms": len(samples[0].visible_ms),
        }
    )
    if not workload.churn_every:
        for _ in range(IDLE_VISIBILITY_ROUNDS):
            before = cpu_probe_s()
            visible_ms, sent, failed = driver.idle_visibility_round()
            record_timed(series, "delta_visible_ms", median(visible_ms), cpu_slowdown(before))
            result.samples["delta_visible_ms"] = len(visible_ms)
            result.sent += sent
            result.failed += failed
    series["server_rss_mb"] = [driver.daemon.rss_mb()]
    latency = driver.admin.stats()["latency"]["match"]
    result.extras["server.hist_match_p50_ms"] = float(latency["p50_ms"])
    result.extras["server.hist_match_p99_ms"] = float(latency["p99_ms"])
    result.extras["server.healthz_rtt_us"] = driver.healthz_rtt_us()
