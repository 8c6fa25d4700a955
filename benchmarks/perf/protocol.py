"""The noise protocol's moving parts: repeats, and machine-speed probes.

Every timing is expressed at one reference machine speed.

This box slows down by 1.5-2x for seconds to minutes at a time (a fixed
pure-Python loop took 16 ms, then 25 ms for 18 s, then 16 ms again), and
the slow-down hits wall time and CPU time alike.  No statistic inside one
run removes that, so two fixed probes — nothing in them comes from this
repository — are timed right before and after every measured repeat, and
the repeat's timings are scaled by ``reference / probe``:

* :func:`cpu_probe_s`, an in-process kernel (interpreter, dict, str and
  json work), beside everything that runs in process or is bound by one
  process's CPU (mining, compile, delta apply, daemon boot);
* :meth:`ReferenceServer.rtt_s`, one keep-alive HTTP/JSON round trip to a
  stdlib-only echo server in a child process, beside the request/response
  metrics.  A ping-pong between two processes has a far larger cache and
  context-switch footprint than a tight loop, and the episodes that slow
  one do not always slow the other.

Over 25 minutes of back-to-back head-warm replays (one seed, unmodified
code) the ten-run spread of ``match_p50_ms`` was 6.2 % raw (worst 21.6 %),
3.0 % (6.6 %) scaled by the CPU probe and 2.1 % (4.6 %) scaled by the
HTTP probe.  Raw values and both probes stay in the result record.
"""

from __future__ import annotations

import gc
import http.client
import json
import socket
import subprocess
import sys
import time
from typing import Any, Callable

from benchmarks.perf.daemon import stop_process
from benchmarks.perf.stats import median

__all__ = [
    "MIN_REPEATS",
    "REFERENCE_CPU_PROBE_S",
    "REFERENCE_HTTP_PROBE_S",
    "ReferenceServer",
    "cpu_probe_s",
    "cpu_slowdown",
    "record_timed",
    "repeat_until",
]

# The probes' durations on this box in its common, uncontended state;
# fixed constants, so scaled values stay comparable across commits.
REFERENCE_CPU_PROBE_S = 0.012
REFERENCE_HTTP_PROBE_S = 165e-6
_CPU_PROBE_RUNS = 5
_HTTP_PROBE_ROUND_TRIPS = 100
MIN_REPEATS = 5


def repeat_until(
    run_one: Callable[[], Any], *, repeats: int | None, budget_s: float
) -> list[Any]:
    """Exactly *repeats* runs, or (when None) at least MIN_REPEATS and then
    as many more as fit in *budget_s* — a faster program gets more
    repeats of the same work, never a shorter measurement.

    Before every repeat the live heap (oracles, request lists, kept
    responses, what earlier repeats left behind) is collected and frozen
    out of the cyclic collector.  The collector stays on, but every repeat
    starts it from the same empty state: a full collection then scans only
    what the repeat itself allocated and lands in the same stage each time,
    instead of wandering between stages as the harness's heap grows.
    """
    results: list[Any] = []
    try:
        started = time.monotonic()
        while True:
            gc.collect()
            gc.freeze()
            results.append(run_one())
            if repeats is not None:
                if len(results) >= repeats:
                    return results
                continue
            elapsed = time.monotonic() - started
            if len(results) >= MIN_REPEATS and elapsed + elapsed / len(results) > budget_s:
                return results
    finally:
        gc.unfreeze()


def _kernel() -> None:
    table: dict[str, object] = {}
    for i in range(3000):
        key = f"key {i % 97} of {i}"
        table[key] = json.loads(json.dumps({"q": key, "n": [i, i + 1]}))


def cpu_probe_s() -> float:
    """Median seconds of the kernel: how fast this process computes right now."""
    runs = []
    for _ in range(_CPU_PROBE_RUNS):
        began = time.perf_counter()
        _kernel()
        runs.append(time.perf_counter() - began)
    return median(runs)


def cpu_slowdown(before_s: float) -> float:
    """Slow-down of the stretch that began with CPU probe *before_s* and ends now."""
    return (before_s + cpu_probe_s()) / 2 / REFERENCE_CPU_PROBE_S


_REFERENCE_SERVER = """
import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    wbufsize = 64 * 1024

    def log_message(self, format, *args):
        pass

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        out = json.dumps({"echo": body, "fields": len(body)}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(out)))
        self.end_headers()
        self.wfile.write(out)

server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
server.daemon_threads = True
print(server.server_address[1], flush=True)
server.serve_forever()
"""
_REFERENCE_BODY = json.dumps({"query": "atomic anchor 0001 review"}).encode("utf-8")


class ReferenceServer:
    """The serving path's machine probe; use as a context manager."""

    def __init__(self) -> None:
        self._process = subprocess.Popen(
            [sys.executable, "-c", _REFERENCE_SERVER], stdout=subprocess.PIPE, text=True
        )
        try:
            assert self._process.stdout is not None
            port = int(self._process.stdout.readline())
            self._connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10.0)
            self._connection.connect()
            self._connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except BaseException:
            stop_process(self._process)
            raise

    def rtt_s(self) -> float:
        """Median seconds of one JSON round trip: how fast two processes talk now."""
        trips = []
        for _ in range(_HTTP_PROBE_ROUND_TRIPS):
            began = time.perf_counter()
            self._connection.request(
                "POST", "/echo", body=_REFERENCE_BODY,
                headers={"Content-Type": "application/json"},
            )  # fmt: skip
            json.loads(self._connection.getresponse().read())
            trips.append(time.perf_counter() - began)
        return median(trips)

    def slowdown(self, before_s: float) -> float:
        """Slow-down of the stretch that began with round trip *before_s* and ends now."""
        return (before_s + self.rtt_s()) / 2 / REFERENCE_HTTP_PROBE_S

    def close(self) -> None:
        self._connection.close()
        stop_process(self._process)

    def __enter__(self) -> "ReferenceServer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def record_timed(
    series: dict[str, list[float]],
    name: str,
    raw: float,
    slowdown: float,
    *,
    rate: bool = False,
) -> None:
    """Append *raw* to ``series[name]`` at reference speed, raw beside it.

    *slowdown* is ``probe / reference`` for the probe measured around
    *raw*: a duration measured while the machine ran at half speed
    (slowdown 2) is halved; a *rate* is doubled.
    """
    series.setdefault(name, []).append(raw * slowdown if rate else raw / slowdown)
    series.setdefault("raw." + name, []).append(raw)
