"""The match daemon: a resident threaded HTTP/JSON server over one artifact.

Architecture — three kinds of thread share one
:class:`~repro.serving.service.MatchService` (which is thread-safe):

* **request threads** — ``ThreadingHTTPServer`` spawns one per connection;
  the handler reads the request line and headers straight off the socket
  into a lower-cased ``dict`` (no ``email`` parser, no ``Message`` per
  request), parses JSON, calls ``service.match`` / ``service.resolve`` and
  writes status + headers + JSON back as one buffered block, one segment;
* **the watcher thread** — polls ``service.maybe_reload()`` every
  ``watch_interval`` seconds on average (each wait is jittered, see
  :class:`_Watcher`), so republishing the artifact file atomically
  hot-swaps the dictionary under live traffic without dropping in-flight
  requests (each request matches against the state it captured); an
  incremental publish that ships a ``<artifact>.delta`` sidecar
  (:mod:`repro.serving.delta`) is applied in memory instead of
  cold-loading a full file, surfaced as ``service.deltas_applied`` /
  ``deltas_skipped`` in ``/stats``;
* **the serve thread** — ``serve_forever`` runs either in the caller's
  thread (:meth:`MatchDaemon.run_forever`, the CLI path, with
  SIGINT/SIGTERM mapped to a clean shutdown) or in a background thread
  (:meth:`MatchDaemon.start`, the test/benchmark path).

Observability rides on the same dispatch path: every request is timed into
a per-endpoint log-spaced latency histogram (``/stats`` ``"latency"``:
``{count, p50_ms, p90_ms, p99_ms, max_ms}`` per endpoint) and optionally
sampled into a structured JSONL access log (:mod:`repro.server.metrics`;
off by default, so the single-core hot path stays access-log-free).
Payloads that report several artifact fields together are built from one
:meth:`MatchService.snapshot` — a concurrent hot swap can therefore never
mix two artifacts' fields in a single ``/stats`` or ``/healthz`` response.

Endpoints (all JSON):

====================  ======================================================
``GET  /healthz``     liveness + artifact version + uptime + worker id
``GET  /stats``       service counters, per-endpoint request counts and
                      latency histograms (``latency``), watcher state,
                      artifact metadata, worker id (``server.worker``)
``GET|POST /match``   one query (``?q=`` or ``{"query": ...}``) or a batch
                      (``q`` repeated, or ``{"queries": [...]}``) → match
                      payload(s); a blank ``q`` is a query, as ``""`` is
``GET|POST /resolve`` like ``/match`` plus ``ranked``: the tied entities
                      ordered by the artifact's click priors + context
``POST /admin/reload``  force a reload of the artifact file
====================  ======================================================

Scale-out: ``reuse_port=True`` binds the listening socket with
``SO_REUSEPORT`` so N daemon processes can share one port — that is what
:mod:`repro.server.supervisor` (CLI ``--procs N``) builds on, with
``worker_id`` telling the processes apart in ``/stats`` and the access log.
"""

from __future__ import annotations

import json
import os
import random
import signal
import socket
import sys
import threading
import time
from email.utils import formatdate
from http import HTTPStatus
from http.server import ThreadingHTTPServer
from pathlib import Path
from socketserver import StreamRequestHandler
from typing import Any, Callable, Sequence
from urllib.parse import parse_qs, urlparse

from repro.matching.matcher import EntityMatch
from repro.matching.resolver import RankedEntity
from repro.server.metrics import AccessLog, MetricsRegistry
from repro.serving.artifact import SynonymArtifact
from repro.serving.service import MatchService

__all__ = [
    "DEFAULT_PORT",
    "MAX_BODY_BYTES",
    "MatchDaemon",
    "match_payload",
    "ranked_payload",
    "reuse_port_supported",
]

DEFAULT_PORT = 8765

# Admission bound on a request body, reported in ``/stats``.  A larger
# ``Content-Length`` is answered 413 *before* the body is read, so an
# oversized POST cannot make a request thread buffer and parse it.
MAX_BODY_BYTES = 8 * 1024 * 1024

# Bounds on a request head, as in ``http.server``: a longer request line is
# answered 414, a longer header line or a 101st header 431.
_MAX_LINE = 65536
_MAX_HEADERS = 100
# The part of a JSON response's head that depends only on its status.
_RESPONSE_HEAD = {
    status.value: (
        f"HTTP/1.1 {status.value} {status.phrase}\r\nServer: repro-match/1\r\n"
        "Content-Type: application/json; charset=utf-8\r\n"
    ).encode("ascii")
    for status in HTTPStatus
}


def reuse_port_supported() -> bool:
    """Whether this platform can share one port across processes.

    ``SO_REUSEPORT`` must both exist *and* be settable (some platforms
    define the constant but refuse it on TCP sockets); the supervisor
    refuses ``--procs N`` with a clear error when this returns False.
    """
    if not hasattr(socket, "SO_REUSEPORT"):
        return False
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    except OSError:
        return False
    finally:
        probe.close()
    return True


class _ReusePortHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer whose socket joins an ``SO_REUSEPORT`` group.

    The option must be set *before* ``bind`` — ``allow_reuse_port`` only
    exists on Python ≥ 3.11, so set it explicitly for 3.10 support.
    """

    def server_bind(self) -> None:
        self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        super().server_bind()


def match_payload(match: EntityMatch) -> dict[str, Any]:
    """The wire shape of one :class:`EntityMatch`.

    The single source of truth for the JSON match shape: the CLI's
    ``match`` JSONL stream and the daemon's ``/match`` and ``/resolve``
    responses all emit exactly this.
    """
    return {
        "query": match.query,
        "matched": match.matched,
        "outcome": match.outcome.value,
        "entities": sorted(match.entity_ids),
        "matched_text": match.matched_text,
        "remainder": match.remainder,
        "score": match.score,
    }


def ranked_payload(ranked: Sequence[RankedEntity]) -> list[dict[str, Any]]:
    """The wire shape of a resolver ranking, best entity first."""
    return [
        {
            "entity_id": item.entity_id,
            "score": item.score,
            "prior": item.prior,
            "context_overlap": item.context_overlap,
        }
        for item in ranked
    ]


class _RequestError(Exception):
    """A client error that should become an HTTP 4xx JSON response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _Watcher(threading.Thread):
    """Background poller driving ``service.maybe_reload()``.

    A failed poll (e.g. a half-second where the artifact is being verified
    against a corrupted copy) is counted and retried on the next tick — the
    daemon keeps serving the artifact it already has.

    Each wait is drawn uniformly from ``[0.5, 1.5] x interval`` (mean: the
    interval).  A fixed period locks the poll phase to anything else that is
    periodic — a publisher on a timer, sibling ``--procs`` workers started
    together, a client replaying the same requests — and the time a publish
    waits for the next poll then sits at one point of ``[0, interval)`` for
    as long as the lock holds, a different point after any small change in
    timing.  With jitter the phase is random within two or three polls, so
    the pickup delay averages half an interval whoever publishes, and is
    never above one and a half.
    """

    JITTER = (0.5, 1.5)

    def __init__(self, service: MatchService, interval: float) -> None:
        super().__init__(name="repro-artifact-watcher", daemon=True)
        self.service = service
        self.interval = interval
        self._jitter = random.Random()  # os-seeded: differs between workers
        # Counters are written by this thread and read by request threads
        # building /stats; one small lock keeps a reader from seeing a
        # swap counted without its timestamp (or vice versa).
        self._counter_lock = threading.Lock()
        self._checks = 0
        self._swaps = 0
        self._failures = 0
        self._last_swap_unix: float | None = None
        self._stop_event = threading.Event()

    def run(self) -> None:
        while not self._stop_event.wait(self.interval * self._jitter.uniform(*self.JITTER)):
            with self._counter_lock:
                self._checks += 1
            try:
                if self.service.maybe_reload():
                    with self._counter_lock:
                        self._swaps += 1
                        self._last_swap_unix = time.time()
            except Exception:
                with self._counter_lock:
                    self._failures += 1

    def counters(self) -> dict[str, Any]:
        """One consistent read of the poll counters (for ``/stats``)."""
        with self._counter_lock:
            return {
                "checks": self._checks,
                "swaps": self._swaps,
                "failures": self._failures,
                "last_swap_unix": self._last_swap_unix,
            }

    def stop(self) -> None:
        self._stop_event.set()


class _SignalShutdown(BaseException):
    """Raised inside ``serve_forever`` by the SIGINT/SIGTERM handlers.

    A ``BaseException``, like ``KeyboardInterrupt``: the signal can land
    while the serving thread accepts a connection, where socketserver logs
    and swallows any ``Exception`` and would keep serving.
    """

    def __init__(self, signum: int) -> None:
        super().__init__(signal.Signals(signum).name)
        self.signum = signum


class MatchDaemon:
    """A long-lived HTTP front-end over one :class:`MatchService`.

    Parameters
    ----------
    artifact:
        Path to a compiled artifact (hot swap and ``/admin/reload`` need a
        path), or a loaded :class:`SynonymArtifact` for ephemeral servers.
    host / port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port` — this is what the tests and the benchmark do).
    watch_interval:
        Mean seconds between ``maybe_reload()`` polls (each wait is
        jittered to 0.5-1.5x); ``0`` disables the watcher (reloads then
        only happen via ``/admin/reload``).
    max_batch:
        Admission bound on ``{"queries": [...]}`` length; longer batches
        are rejected with HTTP 413 instead of tying a request thread up.
    cache_size / enable_fuzzy:
        Forwarded to :class:`MatchService`.
    access_log:
        A configured :class:`~repro.server.metrics.AccessLog`, or None
        (the default) for no access logging at all.
    worker_id:
        Identity of this process in a ``--procs N`` group, surfaced in
        ``/healthz``/``/stats`` (``server.worker``) and stamped into
        access-log lines; None for a standalone daemon.
    reuse_port:
        Bind with ``SO_REUSEPORT`` so sibling processes can listen on the
        same port (raises :class:`RuntimeError` where unsupported).

    The service maps the artifact file read-only, so sibling ``--procs``
    workers share its physical pages and per-worker RSS stays O(1) in
    catalog size until a delta sidecar lands; from then until the next
    full publish each worker serves a private in-memory copy.
    """

    def __init__(
        self,
        artifact: str | Path | SynonymArtifact,
        *,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        cache_size: int = 4096,
        enable_fuzzy: bool = True,
        watch_interval: float = 2.0,
        max_batch: int = 1024,
        access_log: AccessLog | None = None,
        worker_id: int | None = None,
        reuse_port: bool = False,
    ) -> None:
        if watch_interval < 0:
            raise ValueError(f"watch_interval must be >= 0, got {watch_interval}")
        # The watcher's longest wait must fit Event.wait, or its thread dies
        # on the first poll (NaN, inf and 1e300 all fail here).
        if not watch_interval * _Watcher.JITTER[1] <= threading.TIMEOUT_MAX:
            raise ValueError(
                f"watch_interval must be <= {threading.TIMEOUT_MAX / _Watcher.JITTER[1]:.0f} s, "
                f"got {watch_interval}"
            )
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if reuse_port and not reuse_port_supported():
            raise RuntimeError(
                "SO_REUSEPORT is not supported on this platform; "
                "run a single process (no --procs) instead"
            )
        self.service = MatchService(artifact, cache_size=cache_size, enable_fuzzy=enable_fuzzy)
        self.watch_interval = watch_interval
        self.max_batch = max_batch
        self.access_log = access_log
        self.worker_id = worker_id
        self.metrics = MetricsRegistry()
        # Wall-clock start is display-only; uptime is computed from the
        # monotonic anchor so an NTP step can never yield negative uptime.
        self.started_unix = time.time()
        self._started_monotonic = time.monotonic()
        self._requests: dict[str, int] = {}
        self._errors = 0
        self._counter_lock = threading.Lock()
        self._date = (0, b"")  # (unix second, its formatted ``Date`` value)
        self._watcher: _Watcher | None = None
        self._serve_thread: threading.Thread | None = None
        server_cls = _ReusePortHTTPServer if reuse_port else ThreadingHTTPServer
        self._httpd = server_cls((host, port), _make_handler(self))
        self._httpd.daemon_threads = True

    # ------------------------------------------------------------------ #
    # Addressing
    # ------------------------------------------------------------------ #

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (resolved, so meaningful even after ``port=0``)."""
        return self._httpd.server_address[1]

    @property
    def address(self) -> str:
        """Base URL clients should talk to."""
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def _start_watcher(self) -> None:
        if self.watch_interval > 0 and self.service.artifact_path is not None:
            self._watcher = _Watcher(self.service, self.watch_interval)
            self._watcher.start()

    def start(self) -> "MatchDaemon":
        """Serve in a background thread (tests, benchmarks, embedding)."""
        if self._serve_thread is not None:
            raise RuntimeError("daemon already started")
        self._start_watcher()
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-match-daemon",
            daemon=True,
        )
        self._serve_thread.start()
        return self

    def stop(self) -> None:
        """Stop serving and release the socket (idempotent).

        Safe on a daemon that was constructed but never started:
        ``shutdown()`` blocks on the serve loop's exit event, which only
        ``serve_forever`` ever sets, so it is skipped unless the loop is
        actually running — otherwise a cleanup path that constructs the
        daemon and fails before ``start()`` would hang forever here.
        """
        if self._serve_thread is not None:
            self._httpd.shutdown()
            self._serve_thread.join(timeout=10.0)
            self._serve_thread = None
        self._release()

    def _release(self) -> None:
        """The one teardown: watcher, socket, access log, serving state."""
        if self._watcher is not None:
            self._watcher.stop()
            self._watcher = None
        self._httpd.server_close()
        if self.access_log is not None:
            self.access_log.close()
        # End-of-life for the serving state: release the artifact's file
        # mapping if it has one (best-effort — a straggling request thread
        # still holding views just defers the unmap to refcounting).
        self.service.close()

    def run_forever(self) -> int:
        """Serve in the calling thread until SIGINT/SIGTERM (the CLI path).

        Both signals break ``serve_forever`` by raising inside the main
        thread, after which the socket is closed, the watcher stopped and a
        final stats line flushed to stderr — a clean exit code 0 instead of
        a traceback.
        """

        def _raise_shutdown(signum: int, _frame: Any) -> None:
            raise _SignalShutdown(signum)

        previous: dict[int, Any] = {}
        try:
            for signum in (signal.SIGINT, signal.SIGTERM):
                previous[signum] = signal.signal(signum, _raise_shutdown)
        except ValueError:
            # Not the main thread (an embedder driving the CLI from a
            # worker): handlers cannot be installed there; serve
            # anyway and rely on the embedder to shut us down.
            pass
        self._start_watcher()
        reason = "shutdown"
        try:
            self._httpd.serve_forever()
        except (_SignalShutdown, KeyboardInterrupt) as exc:
            reason = str(exc) if isinstance(exc, _SignalShutdown) else "SIGINT"
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            line = self._shutdown_line(reason)  # reads the state _release() closes
            self._release()
            print(line, file=sys.stderr, flush=True)
        return 0

    def _shutdown_line(self, reason: str) -> str:
        snapshot = self.service.snapshot()
        stats = snapshot.stats
        worker = f"worker {self.worker_id}: " if self.worker_id is not None else ""
        return (
            f"repro server: {worker}{reason}; served {stats.queries} queries "
            f"(cache hit rate {stats.hit_rate:.1%}), {stats.reloads} reloads, "
            f"artifact version {snapshot.manifest.version}, socket closed"
        )

    # ------------------------------------------------------------------ #
    # Bookkeeping shared with the handler
    # ------------------------------------------------------------------ #

    def _count(self, endpoint: str) -> None:
        with self._counter_lock:
            self._requests[endpoint] = self._requests.get(endpoint, 0) + 1

    def _count_error(self) -> None:
        with self._counter_lock:
            self._errors += 1

    def _record_request(
        self, endpoint: str, method: str, path: str, status: int, duration_s: float
    ) -> None:
        """Per-request observability: histogram always, access log sampled."""
        self.metrics.record(endpoint, duration_s)
        access_log = self.access_log
        if access_log is not None:
            access_log.maybe_record(
                endpoint=endpoint,
                method=method,
                path=path,
                status=status,
                duration_s=duration_s,
                pid=os.getpid(),
            )

    def _http_date(self) -> bytes:
        """The ``Date`` header value, formatted once a second, not per response."""
        now = int(time.time())
        if self._date[0] != now:
            self._date = (now, formatdate(now, usegmt=True).encode("ascii"))
        return self._date[1]

    def uptime_s(self) -> float:
        """Seconds since construction, immune to wall-clock (NTP) steps."""
        return time.monotonic() - self._started_monotonic

    def healthz_payload(self) -> dict[str, Any]:
        # One snapshot even for a single field: keeps the payload rule —
        # artifact facts come from exactly one captured state — uniform.
        snapshot = self.service.snapshot()
        return {
            "status": "ok",
            "artifact_version": snapshot.manifest.version,
            "uptime_s": self.uptime_s(),
            "worker": self.worker_id,
        }

    def stats_payload(self) -> dict[str, Any]:
        # All artifact/service fields below come from this one snapshot —
        # never from separate self.service property reads, which a
        # concurrent hot swap could interleave into a torn payload.
        snapshot = self.service.snapshot()
        stats = snapshot.stats
        manifest = snapshot.manifest
        with self._counter_lock:
            requests = dict(self._requests)
            errors = self._errors
        watcher = self._watcher
        payload: dict[str, Any] = {
            "server": {
                "started_unix": self.started_unix,
                "uptime_s": self.uptime_s(),
                "worker": self.worker_id,
                "requests": requests,
                "errors": errors,
                "max_batch": self.max_batch,
                "max_body_bytes": MAX_BODY_BYTES,
                "access_log": {
                    "enabled": self.access_log is not None,
                    "sample": self.access_log.sample if self.access_log else 0.0,
                },
            },
            "latency": self.metrics.snapshot(),
            "service": {
                "queries": stats.queries,
                "cache_hits": stats.cache_hits,
                "cache_misses": stats.cache_misses,
                "hit_rate": stats.hit_rate,
                "reloads": stats.reloads,
                "deltas_applied": stats.deltas_applied,
                "deltas_skipped": stats.deltas_skipped,
            },
            "artifact": {
                "version": manifest.version,
                "content_hash": manifest.content_hash,
                "entries": manifest.counts.get("entries", 0),
                "has_priors": snapshot.artifact.has_priors,
                "mmap": snapshot.artifact.is_mapped,
                "path": (
                    str(snapshot.artifact_path)
                    if snapshot.artifact_path is not None
                    else None
                ),
            },
            "watcher": {"enabled": watcher is not None},
        }
        if watcher is not None:
            payload["watcher"]["interval_s"] = watcher.interval
            payload["watcher"].update(watcher.counters())
        return payload

    # ------------------------------------------------------------------ #
    # Request handling (called from handler threads)
    # ------------------------------------------------------------------ #

    def _queries_from_body(self, body: dict[str, Any]) -> tuple[list[str], bool]:
        """Extract (queries, batched) from a /match-/resolve body."""
        if "query" in body and "queries" in body:
            raise _RequestError(400, "pass 'query' or 'queries', not both")
        if "query" in body:
            if not isinstance(body["query"], str):
                raise _RequestError(400, "'query' must be a string")
            queries, batched, field = [body["query"]], False, "query"
        elif "queries" in body:
            queries = body["queries"]
            if not isinstance(queries, list) or not all(
                isinstance(query, str) for query in queries
            ):
                raise _RequestError(400, "'queries' must be a list of strings")
            if len(queries) > self.max_batch:
                raise _RequestError(
                    413, f"batch of {len(queries)} exceeds max_batch={self.max_batch}"
                )
            batched, field = True, "queries"
        else:
            raise _RequestError(400, "body must contain 'query' or 'queries'")
        for query in queries:
            # JSON's \ud800 escapes decode to lone surrogates, which the
            # echoed answer could not encode.
            try:
                query.encode("utf-8")
            except UnicodeEncodeError:
                raise _RequestError(400, f"'{field}' must be valid Unicode text") from None
        return queries, batched

    def handle_match(self, body: dict[str, Any]) -> dict[str, Any]:
        queries, batched = self._queries_from_body(body)
        if batched:
            return {"results": [match_payload(m) for m in self.service.match_many(queries)]}
        return match_payload(self.service.match(queries[0]))

    def handle_resolve(self, body: dict[str, Any]) -> dict[str, Any]:
        queries, batched = self._queries_from_body(body)
        results = []
        for query in queries:
            match, ranked = self.service.resolve(query)
            payload = match_payload(match)
            payload["ranked"] = ranked_payload(ranked)
            results.append(payload)
        if batched:
            return {"results": results}
        return results[0]

    def handle_reload(self) -> dict[str, Any]:
        if self.service.artifact_path is None:
            raise _RequestError(409, "daemon serves a loaded artifact; no path to reload")
        manifest = self.service.reload()
        return {"reloaded": True, "artifact_version": manifest.version}


def _make_handler(daemon: MatchDaemon) -> type[StreamRequestHandler]:
    """Build the request-handler class bound to *daemon*."""

    class Handler(StreamRequestHandler):
        """One keep-alive HTTP/1.1 connection (wire rules: module docstring)."""

        # A response above one MSS still leaves as several segments; without
        # Nagle the last one never waits for the ACK of the first.
        disable_nagle_algorithm = True
        # A response is one buffered write, flushed once the request is recorded.
        wbufsize = 64 * 1024

        # -------------------------------------------------------------- #
        # Plumbing
        # -------------------------------------------------------------- #

        def handle(self) -> None:
            self.close_connection = False
            while not self.close_connection:
                try:
                    if not self._read_head():
                        return  # the client closed the connection
                    raw = self._read_body()
                except _RequestError as exc:
                    # The stream is not at a request boundary: answer and close.
                    self.close_connection = True
                    self._send_error_json(exc.status, str(exc))
                    return
                self._route(raw)
                self.wfile.flush()

        def _readline(self, status: int) -> bytes:
            line = self.rfile.readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                raise _RequestError(status, f"line exceeds {_MAX_LINE} bytes")
            return line

        def _read_head(self) -> bool:
            """Parse request line + headers; False on EOF before a request."""
            line = self._readline(414)
            if not line:
                return False
            words = line.decode("iso-8859-1").split()
            if len(words) != 3 or not words[2].startswith("HTTP/"):
                raise _RequestError(400, f"bad request line {line[:80]!r}")
            self.command, self.path, version = words
            if version not in ("HTTP/1.0", "HTTP/1.1"):
                raise _RequestError(505, f"unsupported protocol version {version}")
            if self.command not in ("GET", "POST"):
                raise _RequestError(501, f"unsupported method {self.command!r}")
            self.headers: dict[str, str] = {}
            name = ""
            for _ in range(_MAX_HEADERS + 1):
                text = self._readline(431).decode("iso-8859-1")
                if text in ("\r\n", "\n", ""):
                    break
                if text[0] in " \t" and name:  # obs-fold continuation line
                    self.headers[name] += " " + text.strip()
                    continue
                name, colon, value = text.partition(":")
                if not colon:
                    raise _RequestError(400, f"bad header line {text[:80]!r}")
                name, value = name.strip().lower(), value.strip()
                # A repeated header is a list: a repeated Content-Length
                # thereby stops being a number and is refused below.
                if name in self.headers:
                    value = f"{self.headers[name]}, {value}"
                self.headers[name] = value
            else:
                raise _RequestError(431, f"more than {_MAX_HEADERS} headers")
            connection = self.headers.get("connection", "").lower()
            self.close_connection = version == "HTTP/1.0" or "close" in connection
            return True

        def _send_json(self, status: int, payload: dict[str, Any]) -> None:
            body = json.dumps(payload, ensure_ascii=False).encode("utf-8")
            close = b"Connection: close\r\n" if self.close_connection else b""
            self.wfile.write(
                b"%bDate: %b\r\nContent-Length: %d\r\n%b\r\n%b"
                % (_RESPONSE_HEAD[status], daemon._http_date(), len(body), close, body)
            )

        def _send_error_json(self, status: int, message: str) -> None:
            daemon._count_error()
            self._send_json(status, {"error": message})

        def _read_body(self) -> bytes:
            """Read — and thereby drain — the request body, enforcing the cap.

            Runs before any response is written, whatever the route: unread
            body bytes would be parsed as the start of the *next* request on
            this keep-alive connection.  An oversized or chunked body is
            rejected *without* reading it (``handle`` then closes).
            """
            if "transfer-encoding" in self.headers:
                raise _RequestError(411, "chunked bodies are not supported; send Content-Length")
            declared = self.headers.get("content-length", "0")
            if not declared.isdecimal() or len(declared) > 18:  # [0-9]+, and int() takes it
                raise _RequestError(400, "invalid Content-Length header")
            length = int(declared)
            if length > MAX_BODY_BYTES:
                raise _RequestError(
                    413, f"body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
                )
            if length == 0:
                return b""
            if self.headers.get("expect", "").lower() == "100-continue":
                self.request.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
            return self.rfile.read(length)

        def _parse_json(self, raw: bytes) -> dict[str, Any]:
            if not raw:
                raise _RequestError(400, "missing JSON request body")
            try:
                body = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise _RequestError(400, f"invalid JSON body: {exc}") from exc
            if not isinstance(body, dict):
                raise _RequestError(400, "JSON body must be an object")
            return body

        def _query_body_from_url(self, query_string: str) -> dict[str, Any]:
            params = parse_qs(query_string, keep_blank_values=True)
            if "q" not in params:
                raise _RequestError(400, "missing ?q= query parameter")
            values = params["q"]
            if len(values) == 1:
                return {"query": values[0]}
            return {"queries": values}

        def _dispatch(
            self, endpoint: str, handler: Callable[[], dict[str, Any]]
        ) -> None:
            daemon._count(endpoint)
            status = 200
            started = time.perf_counter()
            try:
                self._send_json(200, handler())
            except _RequestError as exc:
                status = exc.status
                self._send_error_json(exc.status, str(exc))
            except (BrokenPipeError, ConnectionResetError):
                # The client is gone: nothing was served, so neither the
                # histogram nor the access log records a response.
                raise
            except Exception as exc:  # pragma: no cover - defensive
                status = 500
                self._send_error_json(500, f"internal error: {exc}")
            daemon._record_request(
                endpoint, self.command, self.path, status,
                time.perf_counter() - started,
            )

        # -------------------------------------------------------------- #
        # Routes
        # -------------------------------------------------------------- #

        def _route(self, raw: bytes) -> None:
            url = urlparse(self.path)
            post = self.command == "POST"

            def body() -> dict[str, Any]:
                return self._parse_json(raw) if post else self._query_body_from_url(url.query)

            if url.path == "/match":
                self._dispatch("match", lambda: daemon.handle_match(body()))
            elif url.path == "/resolve":
                self._dispatch("resolve", lambda: daemon.handle_resolve(body()))
            elif url.path == "/healthz" and not post:
                self._dispatch("healthz", daemon.healthz_payload)
            elif url.path == "/stats" and not post:
                self._dispatch("stats", daemon.stats_payload)
            elif url.path == "/admin/reload" and post:
                self._dispatch("reload", daemon.handle_reload)
            else:
                self._send_error_json(404, f"unknown endpoint {url.path!r}")

    return Handler
