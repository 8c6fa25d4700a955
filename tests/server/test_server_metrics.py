"""Tests for the daemon's observability layer and multi-process front end.

Covers :mod:`repro.server.metrics` (histogram bucket math, access-log
sampling determinism with a seeded RNG, the ``/stats`` ``"latency"``
shape) and :mod:`repro.server.supervisor` (``--procs 2``: two workers on
one ``SO_REUSEPORT`` port, traffic spread proven by worker ids, clean
SIGTERM shutdown with no orphan workers).
"""

import io
import json
import os
import random
import threading
import time

import pytest

from repro.matching.index import DictionaryEntry
from repro.server import MatchDaemon, ServerClient, ServerSupervisor, reuse_port_supported
from repro.server.metrics import BUCKET_BOUNDS_S, AccessLog, LatencyHistogram, MetricsRegistry
from repro.serving.artifact import compile_dictionary
from tests.conftest import SRC_DIR, cli_server, daemon_server

needs_reuse_port = pytest.mark.skipif(
    not reuse_port_supported(), reason="SO_REUSEPORT unavailable on this platform"
)


@pytest.fixture()
def artifact_path(tmp_path):
    path = tmp_path / "dict.synart"
    compile_dictionary(
        [
            DictionaryEntry("indy 4", "m1", "mined", 10.0),
            DictionaryEntry("kingdom of the crystal skull", "m1"),
        ],
        path,
        version="gen-1",
    )
    return path


class TestHistogramBucketMath:
    def test_bounds_are_log_spaced_and_increasing(self):
        ratios = [
            BUCKET_BOUNDS_S[i + 1] / BUCKET_BOUNDS_S[i]
            for i in range(len(BUCKET_BOUNDS_S) - 1)
        ]
        assert all(b > a for a, b in zip(BUCKET_BOUNDS_S, BUCKET_BOUNDS_S[1:]))
        # ~10 buckets per decade: every ratio is 10^0.1.
        assert all(abs(r - 10 ** 0.1) < 1e-9 for r in ratios)
        assert BUCKET_BOUNDS_S[0] == pytest.approx(1e-5)
        assert BUCKET_BOUNDS_S[-1] >= 60.0

    def test_empty_histogram_reports_nulls(self):
        hist = LatencyHistogram()
        assert hist.summary() == {
            "count": 0, "p50_ms": None, "p90_ms": None, "p99_ms": None, "max_ms": None,
        }
        assert hist.quantile(0.5) is None

    def test_quantiles_land_in_the_recorded_bucket(self):
        hist = LatencyHistogram()
        for _ in range(99):
            hist.record(0.001)  # 1 ms
        hist.record(0.1)  # one 100 ms outlier
        summary = hist.summary()
        assert summary["count"] == 100
        # p50/p99 rank inside the 1 ms bucket: reported as that bucket's
        # upper bound, i.e. within one bucket width (~26%) above 1 ms.
        for key in ("p50_ms", "p99_ms"):
            assert 1.0 <= summary[key] <= 1.0 * 10 ** 0.1 + 1e-9, key
        # The max is tracked exactly, not bucketed.
        assert summary["max_ms"] == pytest.approx(100.0)
        assert hist.quantile(1.0) == pytest.approx(0.1)

    def test_quantile_is_capped_at_observed_max(self):
        hist = LatencyHistogram()
        hist.record(2e-5)
        # A single sample: every quantile is exactly the observed value,
        # even though its bucket's upper bound lies above it.
        assert hist.quantile(0.5) == pytest.approx(2e-5)

    def test_overflow_bucket_reports_observed_max(self):
        hist = LatencyHistogram()
        hist.record(120.0)  # beyond the last bound
        assert hist.quantile(0.99) == pytest.approx(120.0)
        assert hist.summary()["max_ms"] == pytest.approx(120_000.0)

    def test_quantile_rejects_out_of_range(self):
        hist = LatencyHistogram()
        hist.record(0.001)
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                hist.quantile(bad)

    def test_registry_creates_per_endpoint_histograms_lazily(self):
        registry = MetricsRegistry()
        assert registry.snapshot() == {}
        registry.record("match", 0.002)
        registry.record("match", 0.004)
        registry.record("stats", 0.001)
        snapshot = registry.snapshot()
        assert sorted(snapshot) == ["match", "stats"]
        assert snapshot["match"]["count"] == 2
        assert registry.histogram("match") is registry.histogram("match")


class TestAccessLogSampling:
    def test_sampling_is_deterministic_with_a_seeded_rng(self):
        """Rate R with seed S draws exactly what random.Random(S) draws."""
        reference = random.Random(1234)
        expected = [reference.random() < 0.3 for _ in range(200)]
        stream = io.StringIO()
        log = AccessLog(0.3, stream=stream, worker=3, rng=random.Random(1234))
        decisions = [
            log.maybe_record(
                endpoint="match", method="POST", path="/match",
                status=200, duration_s=0.0015, pid=os.getpid(),
            )
            for _ in range(200)
        ]
        assert decisions == expected
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert len(lines) == sum(expected) > 0

    def test_line_schema(self):
        stream = io.StringIO()
        log = AccessLog(1.0, stream=stream, worker=1)
        assert log.maybe_record(
            endpoint="resolve", method="GET", path="/resolve?q=indy",
            status=200, duration_s=0.00042, pid=4242,
        )
        (line,) = stream.getvalue().splitlines()
        record = json.loads(line)
        assert record == {
            "ts": pytest.approx(time.time(), abs=5),
            "worker": 1,
            "pid": 4242,
            "method": "GET",
            "path": "/resolve?q=indy",
            "endpoint": "resolve",
            "status": 200,
            "ms": 0.42,
        }

    def test_rate_zero_never_logs_and_never_draws(self):
        stream = io.StringIO()
        rng = random.Random(7)
        log = AccessLog(0.0, stream=stream, rng=rng)
        for _ in range(50):
            assert not log.maybe_record(
                endpoint="match", method="POST", path="/match",
                status=200, duration_s=0.001, pid=1,
            )
        assert stream.getvalue() == ""
        # The RNG was never consumed: the off path costs nothing.
        assert rng.random() == random.Random(7).random()

    def test_rate_one_logs_every_request_without_drawing(self):
        stream = io.StringIO()
        rng = random.Random(7)
        log = AccessLog(1.0, stream=stream, rng=rng)
        for _ in range(10):
            assert log.maybe_record(
                endpoint="match", method="POST", path="/match",
                status=200, duration_s=0.001, pid=1,
            )
        assert len(stream.getvalue().splitlines()) == 10
        assert rng.random() == random.Random(7).random()

    def test_invalid_rate_rejected(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError):
                AccessLog(bad)

    def test_file_backed_log_appends_and_closes(self, tmp_path):
        path = tmp_path / "access.log"
        for _ in range(2):  # two openings append, not truncate
            log = AccessLog(1.0, path=path)
            log.maybe_record(
                endpoint="match", method="POST", path="/match",
                status=200, duration_s=0.001, pid=os.getpid(),
            )
            log.close()
            log.close()  # idempotent
        assert len(path.read_text(encoding="utf-8").splitlines()) == 2


class TestDaemonLatencyStats:
    def test_stats_report_per_endpoint_latency_summaries(self, artifact_path):
        with daemon_server(artifact_path, watch_interval=0) as (_daemon, client):
            for _ in range(5):
                assert client.match("indy 4")["matched"] is True
            client.resolve("indy 4")
            latency = client.stats()["latency"]
        assert latency["match"]["count"] == 5
        assert latency["resolve"]["count"] == 1
        assert latency["healthz"]["count"] >= 1
        for summary in latency.values():
            assert set(summary) == {"count", "p50_ms", "p90_ms", "p99_ms", "max_ms"}
            assert 0 < summary["p50_ms"] <= summary["p90_ms"] <= summary["p99_ms"]
            assert summary["p99_ms"] <= summary["max_ms"] * 10 ** 0.1 + 1e-9

    def test_errors_are_recorded_with_their_status(self, artifact_path, tmp_path):
        access_log = tmp_path / "access.log"
        with daemon_server(
            artifact_path, watch_interval=0, max_batch=2,
            access_log_path=access_log, access_log_sample=1.0,
        ) as (_daemon, client):
            client.match("indy 4")
            with pytest.raises(Exception):
                client.match_many(["q"] * 3)  # 413 over max_batch
            latency = client.stats()["latency"]
        assert latency["match"]["count"] == 2  # the 413 is latency too
        lines = [
            json.loads(line)
            for line in access_log.read_text(encoding="utf-8").splitlines()
        ]
        statuses = [line["status"] for line in lines]
        assert 200 in statuses and 413 in statuses
        assert all(line["worker"] is None for line in lines)

    def test_single_process_daemon_reports_null_worker(self, artifact_path):
        with daemon_server(artifact_path, watch_interval=0) as (_daemon, client):
            assert client.healthz()["worker"] is None
            assert client.stats()["server"]["worker"] is None

    def test_uptime_is_monotonic_not_wall_clock(self, artifact_path):
        """An NTP step moves started_unix's meaning, never uptime_s."""
        daemon = MatchDaemon(artifact_path, port=0, watch_interval=0)
        try:
            first = daemon.healthz_payload()["uptime_s"]
            second = daemon.stats_payload()["server"]["uptime_s"]
            assert 0 <= first <= second
            # Simulate a backwards wall-clock step: uptime must not care.
            daemon.started_unix += 3600.0
            assert daemon.healthz_payload()["uptime_s"] >= second
        finally:
            daemon.stop()


@needs_reuse_port
class TestMultiProcessFrontEnd:
    def test_supervisor_requires_at_least_one_proc(self, artifact_path):
        with pytest.raises(ValueError):
            ServerSupervisor(artifact_path, procs=0, port=0)

    def test_unknown_daemon_option_raises_before_any_spawn(self, artifact_path):
        """Worker options are bound against MatchDaemon in the parent."""
        import multiprocessing

        with pytest.raises(TypeError, match="no_such_option"):
            ServerSupervisor(artifact_path, procs=2, port=0, no_such_option=1)
        # One the worker sets itself is refused the same way.
        with pytest.raises(TypeError, match="worker_id"):
            ServerSupervisor(artifact_path, procs=2, port=0, worker_id=7)
        # The port is shared because each worker has an id, not by option.
        with pytest.raises(TypeError, match="reuse_port"):
            ServerSupervisor(artifact_path, procs=2, port=0, reuse_port=True)
        assert not [
            child for child in multiprocessing.active_children()
            if child.name.startswith("repro-server-worker")
        ]

    def test_worker_id_implies_shared_port(self, artifact_path):
        """Daemons with a worker id share a port; one without cannot join."""
        first = MatchDaemon(artifact_path, port=0, watch_interval=0, worker_id=1)
        second = None
        try:
            second = MatchDaemon(
                artifact_path, port=first.port, watch_interval=0, worker_id=2
            )
            assert second.port == first.port
            with pytest.raises(OSError):
                MatchDaemon(artifact_path, port=first.port, watch_interval=0)
        finally:
            first.stop()
            if second is not None:
                second.stop()

    def test_two_workers_share_one_port_and_spread_traffic(self, artifact_path, monkeypatch):
        """In-process --procs 2: one port, both workers answer, clean stop."""
        monkeypatch.setenv("PYTHONPATH", SRC_DIR + os.pathsep + os.environ.get("PYTHONPATH", ""))
        supervisor = ServerSupervisor(
            artifact_path, procs=2, port=0, watch_interval=0
        )
        # start() returns only once BOTH workers are listening: the
        # SO_REUSEPORT group is complete, so spread needs no warm-up wait.
        supervisor.start()
        with pytest.raises(RuntimeError):
            supervisor.start()  # double-start is refused
        codes: list[int] = []
        thread = threading.Thread(
            target=lambda: codes.append(supervisor.run_forever())
        )
        thread.start()
        seen: set[int] = set()
        try:
            # Each fresh connection re-rolls the kernel's SO_REUSEPORT
            # hash; a few dozen attempts reach both workers with
            # overwhelming probability.
            for _ in range(80):
                with ServerClient(supervisor.host, supervisor.port) as client:
                    payload = client.match("indy 4")
                    assert payload["matched"] is True, payload
                    seen.add(client.stats()["server"]["worker"])
                if seen == {0, 1}:
                    break
        finally:
            supervisor.stop()
            thread.join(timeout=30)
        assert seen == {0, 1}, f"traffic never spread: saw workers {seen}"
        assert codes == [0]
        assert all(not worker.is_alive() for worker in supervisor._workers)

    def test_start_fails_fast_when_workers_cannot_boot(self, tmp_path, monkeypatch):
        """A bad artifact kills every worker at construction: start() raises."""
        monkeypatch.setenv("PYTHONPATH", SRC_DIR + os.pathsep + os.environ.get("PYTHONPATH", ""))
        supervisor = ServerSupervisor(
            tmp_path / "does-not-exist.synart", procs=2, port=0, watch_interval=0
        )
        with pytest.raises(RuntimeError, match="during startup"):
            supervisor.start()
        assert all(not worker.is_alive() for worker in supervisor._workers)

    def test_sample_the_daemon_refuses_fails_start(self, artifact_path, tmp_path, monkeypatch):
        """The parent forwards access-log options; each worker refuses 2.0."""
        monkeypatch.setenv("PYTHONPATH", SRC_DIR + os.pathsep + os.environ.get("PYTHONPATH", ""))
        supervisor = ServerSupervisor(
            artifact_path, procs=2, port=0, watch_interval=0,
            access_log_path=tmp_path / "access.log", access_log_sample=2.0,
        )
        with pytest.raises(RuntimeError, match="during startup"):
            supervisor.start()
        assert all(not worker.is_alive() for worker in supervisor._workers)
        assert not (tmp_path / "access.log").exists()

    def test_procs_cli_serves_and_sigterm_leaves_no_orphans(self, artifact_path, tmp_path):
        """The acceptance path: `server --procs 2` over one port, SIGTERM.

        Correct matches through the shared port, both worker ids in the
        sampled access log, exit code 0, and every worker pid logged must
        be gone after the parent exits — no orphan processes.  No explicit
        --access-log-sample: a bare --access-log PATH implies logging
        every request rather than silently writing nothing.
        """
        access_log = tmp_path / "access.log"
        with cli_server(
            "--artifact", str(artifact_path), "--port", "0",
            "--watch-interval", "0", "--procs", "2",
            "--access-log", str(access_log),
        ) as server:
            assert "2 procs via SO_REUSEPORT" in server.banner, server.banner
            for _ in range(50):
                with ServerClient(port=server.port) as client:
                    assert client.match("indy 4")["matched"] is True
            code, _out, err = server.stop(timeout=30)
        assert code == 0, err
        assert "supervisor: SIGTERM" in err, err
        assert "Traceback" not in err, err

        lines = [
            json.loads(line)
            for line in access_log.read_text(encoding="utf-8").splitlines()
        ]
        assert len(lines) >= 50
        assert {line["worker"] for line in lines} == {0, 1}, (
            "traffic never spread across both workers"
        )
        # No orphans: every worker pid that served traffic must be dead.
        for pid in {line["pid"] for line in lines}:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
