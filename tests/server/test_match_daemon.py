"""End-to-end tests for the HTTP match daemon and its client.

The daemon runs in-process on an ephemeral port (``port=0``) and is driven
through :class:`ServerClient` — the same wire path production traffic takes.
That ``/match`` and ``/resolve`` answer exactly like the reference, across
republishes, is ``tests/oracle``'s job; these tests pin the endpoints'
payload spelling, refusals, hot swap and lifecycle.
"""

import os
import signal
import socket
import threading
import time

import pytest

from repro.clicklog.log import ClickLog
from repro.matching.index import DictionaryEntry
from repro.matching.matcher import QueryMatcher
from repro.matching.resolver import MatchResolver
from repro.server import MatchDaemon, ServerClient, ServerError
from repro.server.daemon import MAX_BODY_BYTES
from repro.serving.artifact import SynonymArtifact, compile_dictionary
from tests.conftest import cli_server, daemon_server, start_daemon

ENTRIES = [
    DictionaryEntry("lyra quinn", "m1"),
    DictionaryEntry("lyra quinn", "m2"),
    DictionaryEntry("lyra quinn and the kingdom of the crystal skull", "m1", "canonical"),
    DictionaryEntry("kingdom of the crystal skull", "m1"),
    DictionaryEntry("lyra quinn 2 and the empire of the shattered crown", "m2", "canonical"),
    DictionaryEntry("empire of the shattered crown", "m2"),
]

CLICK_TUPLES = [
    ("empire of the shattered crown", "https://a.example", 500),
    ("lyra quinn 2 and the empire of the shattered crown", "https://a.example", 100),
    ("kingdom of the crystal skull", "https://b.example", 40),
    ("lyra quinn", "https://c.example", 7),
]


@pytest.fixture(scope="module")
def click_log():
    return ClickLog.from_tuples(CLICK_TUPLES)


@pytest.fixture(scope="module")
def artifact_path(click_log, tmp_path_factory):
    path = tmp_path_factory.mktemp("daemon") / "dict.synart"
    compile_dictionary(ENTRIES, path, version="gen-1", click_log=click_log)
    return path


@pytest.fixture(scope="module")
def daemon(artifact_path):
    daemon = start_daemon(artifact_path, watch_interval=0.05, max_batch=16)
    yield daemon
    daemon.stop()


@pytest.fixture()
def client(daemon):
    with ServerClient(daemon.host, daemon.port) as client:
        client.wait_until_ready(timeout=10)
        yield client


class TestHealthAndStats:
    def test_healthz(self, client):
        payload = client.healthz()
        assert payload["status"] == "ok"
        assert payload["artifact_version"] == "gen-1"
        assert payload["uptime_s"] >= 0

    def test_stats_shape(self, client):
        payload = client.stats()
        assert payload["artifact"]["has_priors"] is True
        assert payload["artifact"]["entries"] == len(ENTRIES)
        assert payload["service"]["queries"] >= 0
        assert payload["watcher"]["enabled"] is True
        assert payload["server"]["requests"]["stats"] >= 1

    def test_request_counters_accumulate(self, client):
        before = client.stats()["server"]["requests"].get("match", 0)
        client.match("lyra quinn")
        client.match("lyra quinn")
        after = client.stats()["server"]["requests"]["match"]
        assert after == before + 2


class TestMatchEndpoint:
    def test_single_match_equals_in_process_matcher(self, client):
        reference = QueryMatcher(SynonymArtifact.from_entries(ENTRIES))
        for query in ("lyra quinn crystal skull", "unknown stuff", "", "THE KINGDOM!!"):
            payload = client.match(query)
            match = reference.match(query)
            assert payload == {
                "query": match.query,
                "matched": match.matched,
                "outcome": match.outcome.value,
                "entities": sorted(match.entity_ids),
                "matched_text": match.matched_text,
                "remainder": match.remainder,
                "score": match.score,
            }, query

    def test_batched_match_preserves_order(self, client):
        queries = ["lyra quinn", "zzz nothing", "empire of the shattered crown"]
        results = client.match_many(queries)
        assert [payload["query"] for payload in results] == queries
        assert [payload["matched"] for payload in results] == [True, False, True]

    def test_get_with_query_parameter(self, client, daemon):
        payload = client._request("GET", "/match?q=lyra+quinn")
        assert payload["matched"] is True
        assert payload["entities"] == ["m1", "m2"]

    @pytest.mark.parametrize("endpoint", ["/match", "/resolve"])
    def test_get_answers_blank_and_repeated_q_like_post(self, client, endpoint):
        """A blank ``q`` is the query "", as in a POST; a repeated ``q`` is a batch."""
        single = client._request("GET", f"{endpoint}?q=")
        assert single == client._request("POST", endpoint, {"query": ""})
        assert single["query"] == ""
        batch = client._request("GET", f"{endpoint}?q=&q=lyra+quinn")
        assert batch == client._request("POST", endpoint, {"queries": ["", "lyra quinn"]})
        with pytest.raises(ServerError) as excinfo:
            client._request("GET", f"{endpoint}?x=1")
        assert excinfo.value.status == 400

    def test_batch_above_max_rejected_413(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.match_many(["q"] * 17)
        assert excinfo.value.status == 413

    def test_malformed_bodies_rejected_400(self, client):
        for body in ({}, {"query": 3}, {"queries": "not-a-list"}, {"query": "a", "queries": []}):
            with pytest.raises(ServerError) as excinfo:
                client._request("POST", "/match", body)
            assert excinfo.value.status == 400, body

    def test_unknown_endpoint_404(self, client):
        with pytest.raises(ServerError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_keep_alive_survives_unread_body_routes(self, client, connects):
        """POST bodies are drained on every route, even ones ignoring them.

        An unread body would be parsed as the start of the next request on
        this keep-alive connection (a '{}POST ...' 501).  /admin/reload
        with a body and a 404 POST are exactly those routes; the follow-up
        match must succeed on the *same* socket.
        """
        client.match("lyra quinn")  # establish the connection
        connects.clear()
        assert client._request("POST", "/admin/reload", {"ignored": True})["reloaded"]
        assert client.match("lyra quinn")["matched"] is True
        with pytest.raises(ServerError) as excinfo:
            client._request("POST", "/nowhere", {"also": "ignored"})
        assert excinfo.value.status == 404
        assert client.match("lyra quinn")["matched"] is True
        assert connects == []  # never had to reconnect

    def test_chunked_body_rejected_411(self, daemon):
        """Chunked bodies can't be drained by Content-Length; refuse them.

        Accepting the request but leaving the chunked bytes unread would
        poison the keep-alive stream for the next request.
        """
        import http.client

        conn = http.client.HTTPConnection(daemon.host, daemon.port, timeout=10)
        try:
            conn.putrequest("POST", "/match")
            conn.putheader("Transfer-Encoding", "chunked")
            conn.endheaders()
            conn.send(b'11\r\n{"query": "indy"}\r\n0\r\n\r\n')
            response = conn.getresponse()
            assert response.status == 411
            assert b"Content-Length" in response.read()
        finally:
            conn.close()

    def test_oversized_body_rejected_before_reading(self, daemon, client):
        """A Content-Length one past the limit is refused on the header alone.

        No body byte is ever sent: a daemon that read before refusing would
        block until this socket's timeout instead of answering.
        """
        with socket.create_connection((daemon.host, daemon.port), timeout=10) as sock:
            sock.sendall(
                b"POST /match HTTP/1.1\r\nHost: test\r\n"
                + f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode()
            )
            response = b""
            while chunk := sock.recv(65536):  # b"" = the daemon closed the stream
                response += chunk
        assert response.startswith(b"HTTP/1.1 413 ")
        assert f"{MAX_BODY_BYTES}-byte limit".encode() in response
        assert client.stats()["server"]["max_body_bytes"] == MAX_BODY_BYTES
        assert client.match("lyra quinn")["matched"] is True


class TestResolveEndpoint:
    def test_resolve_pinned_to_live_log_resolver(self, client, click_log):
        """/resolve ≡ MatchResolver.rank over the live log the artifact's
        priors block was compiled from, entity by entity, field for field."""
        index = SynonymArtifact.from_entries(ENTRIES)
        matcher = QueryMatcher(index)
        live = MatchResolver(index, click_log=click_log)
        for query in (
            "lyra quinn",
            "lyra quinn crystal skull",
            "lyra quinn shattered crown showtimes",
            "kingdom of the crystal skull",
            "zzz unmatched",
        ):
            expected = live.rank(matcher.match(query))
            assert client.resolve(query)["ranked"] == [
                {
                    "entity_id": item.entity_id,
                    "score": item.score,
                    "prior": item.prior,
                    "context_overlap": item.context_overlap,
                }
                for item in expected
            ], query

    def test_resolve_orders_by_popularity(self, client):
        # m2's strings carry ~600 clicks vs m1's ~40: the bare ambiguous
        # mention resolves to the popular entity first.
        payload = client.resolve("lyra quinn")
        assert payload["entities"] == ["m1", "m2"]
        assert [item["entity_id"] for item in payload["ranked"]] == ["m2", "m1"]

    def test_resolve_batch(self, client):
        results = client.resolve_many(["lyra quinn", "zzz"])
        assert [bool(payload["ranked"]) for payload in results] == [True, False]

    def test_resolve_without_priors_degrades_to_uniform(self, tmp_path):
        path = tmp_path / "noprior.synart"
        compile_dictionary(ENTRIES, path, version="v-noprior")
        with daemon_server(path, watch_interval=0) as (_daemon, client):
            assert client.stats()["artifact"]["has_priors"] is False
            payload = client.resolve("lyra quinn")
            priors = {item["entity_id"]: item["prior"] for item in payload["ranked"]}
            assert priors == {"m1": 1.0, "m2": 1.0}
            # Uniform priors: deterministic entity-id tie-break.
            assert [item["entity_id"] for item in payload["ranked"]] == ["m1", "m2"]


class TestHotSwap:
    def test_admin_reload_and_watcher_swap(self, click_log, tmp_path):
        path = tmp_path / "swap.synart"
        compile_dictionary(ENTRIES, path, version="gen-1", click_log=click_log)
        with daemon_server(path, watch_interval=0.05) as (_daemon, client):
            assert client.match("brand new synonym")["matched"] is False

            # Republish: the background watcher must pick it up without
            # any explicit reload call.
            compile_dictionary(
                ENTRIES + [DictionaryEntry("brand new synonym", "m3", "mined", 5.0)],
                path,
                version="gen-2",
                click_log=click_log,
            )
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if client.healthz()["artifact_version"] == "gen-2":
                    break
                time.sleep(0.02)
            stats = client.stats()
            assert stats["artifact"]["version"] == "gen-2"
            assert stats["watcher"]["swaps"] >= 1
            assert stats["service"]["reloads"] >= 1
            assert client.match("brand new synonym")["entities"] == ["m3"]

            # Explicit admin reload still works alongside the watcher.
            payload = client.reload()
            assert payload == {"reloaded": True, "artifact_version": "gen-2"}

    def test_watcher_applies_delta_sidecar(self, click_log, tmp_path):
        """An incremental publish (delta sidecar) hot-swaps under traffic."""
        from repro.serving.delta import delta_path_for, diff_delta

        path = tmp_path / "delta-swap.synart"
        compile_dictionary(ENTRIES, path, version="gen-1", click_log=click_log)
        with daemon_server(path, watch_interval=0.05) as (_daemon, client):
            assert client.match("journal synonym")["matched"] is False

            diff_delta(
                SynonymArtifact.load(path),
                ENTRIES + [DictionaryEntry("journal synonym", "m3", "mined", 9.0)],
                delta_path_for(path),
                version="gen-2",
                click_log=click_log,
            )
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if client.healthz()["artifact_version"] == "gen-2":
                    break
                time.sleep(0.02)
            stats = client.stats()
            assert stats["artifact"]["version"] == "gen-2"
            assert stats["service"]["deltas_applied"] == 1
            assert stats["service"]["reloads"] == 0  # no full cold load
            assert client.match("journal synonym")["entities"] == ["m3"]
            # The applied priors serve /resolve like a full compile's.
            resolved = client.resolve("journal synonym")
            assert resolved["ranked"][0]["entity_id"] == "m3"

    def test_watcher_waits_are_jittered_around_the_interval(self):
        """No fixed poll period: each wait is 0.5-1.5x the interval, and varies."""
        from repro.server.daemon import _Watcher

        class _Service:
            def maybe_reload(self):
                return False

        class _RecordingEvent:
            def __init__(self, polls):
                self.timeouts, self.polls = [], polls

            def wait(self, timeout):
                self.timeouts.append(timeout)
                return len(self.timeouts) > self.polls

        watcher = _Watcher(_Service(), 0.2)
        watcher._stop_event = event = _RecordingEvent(polls=200)
        watcher.run()  # in this thread: returns once the event reports "stopped"
        assert watcher.counters()["checks"] == 200
        assert all(0.1 <= timeout <= 0.3 for timeout in event.timeouts)
        assert max(event.timeouts) - min(event.timeouts) > 0.1
        assert sum(event.timeouts) / len(event.timeouts) == pytest.approx(0.2, rel=0.1)

    def test_reload_without_path_conflicts_409(self, artifact_path):
        with daemon_server(SynonymArtifact.load(artifact_path)) as (_daemon, client):
            with pytest.raises(ServerError) as excinfo:
                client.reload()
            assert excinfo.value.status == 409

    def test_requests_survive_concurrent_traffic(self, daemon):
        """A light in-process load test: one client per thread, all green."""
        errors: list = []

        def worker():
            try:
                with ServerClient(daemon.host, daemon.port) as client:
                    for _ in range(25):
                        assert client.match("lyra quinn")["matched"] is True
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        pool = [threading.Thread(target=worker) for _ in range(4)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=30)
        assert errors == []


class TestSnapshotConsistency:
    def test_stats_payload_never_tears_across_hot_swap(self, click_log, tmp_path):
        """Regression: /stats must describe exactly one artifact, never two.

        ``stats_payload`` used to read ``service.stats``, ``.manifest`` and
        ``.artifact`` as separate property calls; a hot swap landing between
        them paired one artifact's ``version``/``content_hash`` with the
        other's ``has_priors``/``entries``.  Hammering the payload builder
        while a second thread flips between a priored and an unpriored
        artifact catches that tear within a couple of seconds pre-fix; with
        ``MatchService.snapshot()`` every payload is internally consistent.
        """
        with_priors = tmp_path / "with-priors.synart"
        without_priors = tmp_path / "no-priors.synart"
        manifest_a = compile_dictionary(
            ENTRIES, with_priors,
            version="with-priors", click_log=click_log,
        )
        manifest_b = compile_dictionary(
            ENTRIES[:2], without_priors, version="no-priors"
        )
        expected = {
            manifest_a.version: (manifest_a.content_hash, True, len(ENTRIES)),
            manifest_b.version: (manifest_b.content_hash, False, 2),
        }

        daemon = MatchDaemon(with_priors, port=0, watch_interval=0)
        stop = threading.Event()
        failures: list[Exception] = []

        def flipper() -> None:
            try:
                while not stop.is_set():
                    daemon.service.reload(without_priors)
                    daemon.service.reload(with_priors)
            except Exception as exc:  # pragma: no cover - surfaced below
                failures.append(exc)

        thread = threading.Thread(target=flipper, daemon=True)
        thread.start()
        try:
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline:
                for _ in range(200):
                    artifact = daemon.stats_payload()["artifact"]
                    want_hash, want_priors, want_entries = expected[artifact["version"]]
                    assert artifact["content_hash"] == want_hash, artifact
                    assert artifact["has_priors"] == want_priors, (
                        f"torn read: version {artifact['version']!r} paired with "
                        f"has_priors={artifact['has_priors']}"
                    )
                    assert artifact["entries"] == want_entries, artifact
        finally:
            stop.set()
            thread.join(timeout=10)
            daemon.stop()
        assert failures == []


class TestDaemonLifecycle:
    def test_start_twice_rejected(self, artifact_path):
        daemon = start_daemon(artifact_path, watch_interval=0)
        try:
            with pytest.raises(RuntimeError):
                daemon.start()
        finally:
            daemon.stop()

    def test_invalid_parameters_rejected(self, artifact_path):
        for interval in (-1, float("nan"), float("inf"), 1e300):
            with pytest.raises(ValueError):
                MatchDaemon(artifact_path, port=0, watch_interval=interval)
        with pytest.raises(ValueError):
            MatchDaemon(artifact_path, port=0, max_batch=0)

    def test_stop_without_start_does_not_hang(self, artifact_path):
        """A constructed-but-never-started daemon must clean up, not block.

        ``shutdown()`` waits on an event only ``serve_forever`` sets; the
        try/finally shape `daemon = MatchDaemon(...); ...; daemon.stop()`
        would deadlock forever if stop() called it unconditionally.
        """
        daemon = MatchDaemon(artifact_path, port=0, watch_interval=0)
        done = threading.Event()

        def stopper():
            daemon.stop()
            done.set()

        thread = threading.Thread(target=stopper, daemon=True)
        thread.start()
        assert done.wait(timeout=5), "stop() hung on a never-started daemon"
        # And stop() stays idempotent after a normal start/stop cycle.
        daemon = MatchDaemon(artifact_path, port=0, watch_interval=0).start()
        daemon.stop()
        daemon.stop()

    def test_run_forever_off_main_thread_serves_without_handlers(self, artifact_path):
        """An embedder may drive run_forever from a worker thread.

        Signal handlers can only be installed in the main thread; the
        daemon must fall back to serving without them instead of raising
        ValueError with the socket already bound.
        """
        daemon = MatchDaemon(artifact_path, port=0, watch_interval=0)
        codes: list = []
        thread = threading.Thread(target=lambda: codes.append(daemon.run_forever()))
        thread.start()
        try:
            with ServerClient(daemon.host, daemon.port) as client:
                client.wait_until_ready()
                assert client.match("lyra quinn")["matched"] is True
        finally:
            daemon._httpd.shutdown()
            thread.join(timeout=10)
        assert codes == [0]

    def test_sigterm_while_accepting_a_connection_still_stops(self, artifact_path, capsys):
        """The signal lands inside socketserver's per-connection code, which
        logs and swallows any ``Exception``; the shutdown must get through."""
        daemon = MatchDaemon(artifact_path, port=0, watch_interval=0)
        accept = daemon._httpd.process_request

        def signalled_accept(request, client_address):
            os.kill(os.getpid(), signal.SIGTERM)
            accept(request, client_address)

        daemon._httpd.process_request = signalled_accept
        connect = threading.Timer(0.2, lambda: socket.create_connection(
            (daemon.host, daemon.port), timeout=5).close())  # fmt: skip
        fallback = threading.Timer(5, daemon._httpd.shutdown)  # a lost signal: stop anyway
        connect.start()
        fallback.start()
        try:
            assert daemon.run_forever() == 0
        finally:
            connect.cancel()
            fallback.cancel()
        assert "repro server: SIGTERM; served 0 queries" in capsys.readouterr().err

    def test_sigterm_exits_cleanly(self, artifact_path):
        """The real ops path: `python -m repro server`, then SIGTERM.

        The process must print its machine-readable address banner, serve
        traffic, and exit 0 with a final stats line on stderr — no
        traceback.
        """
        with cli_server(
            "--artifact", str(artifact_path), "--port", "0", "--watch-interval", "0"
        ) as server:
            with ServerClient(port=server.port) as client:
                client.wait_until_ready(timeout=15)
                assert client.match("lyra quinn")["matched"] is True
            code, _out, err = server.stop()
        assert code == 0, err
        assert "SIGTERM" in err
        assert "served 1 queries" in err
        assert "socket closed" in err
        assert "Traceback" not in err
