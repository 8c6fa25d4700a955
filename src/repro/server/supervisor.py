"""Multi-process front end: N match daemons sharing one port.

One GIL-bound :class:`~repro.server.daemon.MatchDaemon` saturates a core
long before it saturates a NIC.  :class:`ServerSupervisor` scales the
daemon out without a load balancer: every worker process binds the *same*
``host:port`` with ``SO_REUSEPORT`` and the kernel spreads incoming
connections across the listening sockets by connection hash.

Topology::

    supervisor (parent)          workers (children, one process each)
    ─ reserves host:port  ──►    MatchDaemon(worker_id=i, **daemon_options)
    ─ spawns N workers           SO_REUSEPORT on the reserved port
    ─ propagates SIGINT/SIGTERM  own MatchService + artifact watcher
    ─ reaps, exits last          own latency histograms + access log
                                 run_forever() → clean exit 0

Design points:

* **Port reservation** — the parent binds (without listening) an
  ``SO_REUSEPORT`` socket first, so ``port=0`` resolves to one concrete
  port every worker then joins; a bound-but-not-listening socket never
  receives connections, so the parent steals no traffic.
* **Independent workers** — each worker runs the single-process daemon
  over the same artifact path with the caller's options, verbatim, with
  its own watcher polling for republishes; hot swap therefore needs no
  cross-process coordination (each worker swaps within a poll interval of
  the others).
* **Worker identity** — the one option the parent adds is ``worker_id``,
  which also makes the daemon bind with ``SO_REUSEPORT``.
  ``/healthz``/``/stats`` report ``worker`` and access-log lines (every
  worker appends to the one ``access_log_path``) carry ``worker`` +
  ``pid``, which is how tests and CI prove traffic actually spreads
  across processes.
* **Shutdown** — SIGINT/SIGTERM to the parent is forwarded to every
  worker as SIGTERM; workers exit 0 through the daemon's own clean
  shutdown, the parent reaps them all (escalating to SIGKILL only after
  ``SHUTDOWN_TIMEOUT_S``) and exits 0 — no orphans.  A worker dying on its
  own is fail-fast: the supervisor tears the group down and exits with
  the dead worker's code.

Platforms without a working ``SO_REUSEPORT`` (checked with a probe
socket, not just ``hasattr``) are refused at construction with a clear
error — there is no degraded single-socket fallback pretending to be N
processes.
"""

from __future__ import annotations

import inspect
import multiprocessing
import os
import signal
import socket
import sys
import time
from pathlib import Path
from typing import Any

from repro.server.daemon import DEFAULT_PORT, MatchDaemon, reuse_port_supported

__all__ = ["ServerSupervisor"]

# How long a SIGTERMed worker may take to exit before it is SIGKILLed.
SHUTDOWN_TIMEOUT_S = 10.0


def _worker_main(
    worker_id: int, artifact: str, daemon_options: dict[str, Any], ready: Any
) -> None:
    """Entry point of one worker process (module-level: spawn pickles it).

    Builds this worker's daemon, signals *ready* — the daemon's listening
    socket is bound and active once construction returns — then serves
    until SIGTERM; ``run_forever`` installs the usual clean-shutdown
    handlers in the child's main thread.
    """
    daemon = MatchDaemon(artifact, **daemon_options, worker_id=worker_id)
    ready.set()
    sys.exit(daemon.run_forever())


class ServerSupervisor:
    """Parent process of a ``--procs N`` daemon group.

    The parent consumes ``procs`` and ``host``/``port`` (resolved at
    construction — ``port=0`` picks a free port — so the address can be
    printed before :meth:`run_forever`).  Every other keyword is a
    :class:`MatchDaemon` option, handed verbatim to each worker's daemon;
    one it does not accept (``worker_id`` included: the parent numbers
    the workers) raises :class:`TypeError` here, before any process is
    spawned.  A value the daemon refuses (say an access-log sample
    outside ``[0, 1]``) is refused in each worker, and :meth:`start`
    reports it as a start-up failure.  Every worker maps the same published file: one
    set of physical pages serves the whole group, so adding workers does
    not add copies of the catalog (until a delta sidecar lands; then each
    worker serves its own in-memory copy until the next full publish).
    """

    def __init__(
        self,
        artifact: str | Path,
        *,
        procs: int,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        **daemon_options: Any,
    ) -> None:
        if procs < 1:
            raise ValueError(f"procs must be >= 1, got {procs}")
        if not reuse_port_supported():
            raise RuntimeError(
                "cannot run a multi-process server: SO_REUSEPORT is not "
                "supported on this platform; run a single process (no --procs)"
            )
        # The worker's exact call, bound now: an option MatchDaemon does not
        # take (or one the worker sets itself) fails here, not in N children.
        inspect.signature(MatchDaemon).bind_partial(
            artifact, worker_id=0, **daemon_options
        )
        self.procs = procs
        # Reserve the address: bound (never listening) with SO_REUSEPORT,
        # this socket pins port=0 to one concrete port for the lifetime of
        # the group, and guarantees every worker can join it.
        self._anchor = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._anchor.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        self._anchor.bind((host, port))
        self.host, self.port = self._anchor.getsockname()[:2]
        # _worker_main's arguments between worker_id and ready (all picklable).
        self._worker_args = (
            str(artifact),
            {**daemon_options, "host": self.host, "port": self.port},
        )
        # spawn, not fork: workers re-import and build their own state, so
        # they cannot inherit half-initialized parent threads or sockets,
        # and behavior matches across platforms.
        self._context = multiprocessing.get_context("spawn")
        self._workers: list[multiprocessing.process.BaseProcess] = []
        self._ready: list[Any] = []
        self._shutdown_signum: int | None = None

    @property
    def address(self) -> str:
        """Base URL clients should talk to (shared by every worker)."""
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def stop(self) -> None:
        """Request a clean shutdown (thread-safe; what SIGTERM does)."""
        self._shutdown_signum = signal.SIGTERM
        self._signal_workers(signal.SIGTERM)

    def shutdown(self) -> None:
        """Stop the group and release every resource (idempotent).

        The embedding API counterpart of :meth:`run_forever`'s teardown,
        for callers that drove the group via :meth:`start` (tests, the
        experiment harness): SIGTERM every worker, then the same
        :meth:`_release` — the port is free the moment this returns.
        """
        self.stop()
        self._release()

    def _release(self) -> None:
        """The one teardown: join every worker, then free the port."""
        self._reap_workers()
        self._anchor.close()

    def _signal_workers(self, signum: int) -> None:
        for worker in self._workers:
            if worker.is_alive() and worker.pid is not None:
                try:
                    os.kill(worker.pid, signum)
                except (ProcessLookupError, PermissionError):  # pragma: no cover
                    pass

    def start(self, *, timeout: float = 60.0) -> "ServerSupervisor":
        """Spawn the workers and block until every one is listening.

        Only after this returns is the advertised :attr:`address` fully
        live — the ``SO_REUSEPORT`` group is complete, so a wrapper that
        reads the printed address and connects immediately both reaches a
        worker *and* gets kernel-hashed across all of them (the
        single-process daemon makes the same bind-before-banner promise).
        A worker dying during startup (bad artifact, bind failure) tears
        the group down and raises instead of serving below strength.
        """
        if self._workers:
            raise RuntimeError("supervisor already started")
        self._ready = [self._context.Event() for _ in range(self.procs)]
        self._workers = [
            self._context.Process(
                target=_worker_main,
                args=(worker_id, *self._worker_args, ready),
                name=f"repro-server-worker-{worker_id}",
                daemon=True,  # safety net: die with an abnormally-exiting parent
            )
            for worker_id, ready in enumerate(self._ready)
        ]
        for worker in self._workers:
            worker.start()
        deadline = time.monotonic() + timeout
        while not all(event.is_set() for event in self._ready):
            dead = next((w for w in self._workers if w.exitcode is not None), None)
            if dead is not None:
                self._signal_workers(signal.SIGTERM)
                self._reap_workers()
                raise RuntimeError(
                    f"{dead.name} exited with code {dead.exitcode} during startup"
                )
            if time.monotonic() > deadline:  # pragma: no cover - hung worker
                self._signal_workers(signal.SIGTERM)
                self._reap_workers()
                raise RuntimeError(f"workers not ready within {timeout:g}s")
            time.sleep(0.05)
        return self

    def run_forever(self) -> int:
        """Supervise until shutdown; returns the group's exit code.

        Calls :meth:`start` first unless it already ran.  SIGINT/SIGTERM
        (or :meth:`stop` from another thread) forward SIGTERM to every
        worker and reap them — exit 0.  A worker exiting on its own tears
        the whole group down and returns that worker's exit code: a
        supervisor silently running below strength would be worse than a
        visible crash.
        """
        if not self._workers:
            self.start()

        def _propagate(signum: int, _frame: Any) -> None:
            self._shutdown_signum = signum
            self._signal_workers(signal.SIGTERM)

        previous: dict[int, Any] = {}
        try:
            for signum in (signal.SIGINT, signal.SIGTERM):
                previous[signum] = signal.signal(signum, _propagate)
        except ValueError:
            # Not the main thread: handlers cannot be installed there;
            # supervise anyway, the embedder shuts us down via stop().
            pass

        exit_code = 0
        reason = "shutdown"
        try:
            while self._shutdown_signum is None:
                dead = next(
                    (w for w in self._workers if not w.is_alive()), None
                )
                if dead is not None:
                    exit_code = dead.exitcode if dead.exitcode else 1
                    reason = (
                        f"worker {dead.name} exited unexpectedly "
                        f"(code {dead.exitcode})"
                    )
                    self._shutdown_signum = signal.SIGTERM
                    self._signal_workers(signal.SIGTERM)
                    break
                time.sleep(0.05)
            else:
                reason = signal.Signals(self._shutdown_signum).name
        finally:
            self._release()  # under our handlers: a repeated SIGTERM cannot orphan
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            print(
                f"repro server supervisor: {reason}; "
                f"{len(self._workers)} workers stopped, socket released",
                file=sys.stderr,
                flush=True,
            )
        return exit_code

    def _reap_workers(self) -> None:
        """Join every worker, escalating to SIGKILL after the timeout."""
        deadline = time.monotonic() + SHUTDOWN_TIMEOUT_S
        for worker in self._workers:
            worker.join(timeout=max(0.0, deadline - time.monotonic()))
        for worker in self._workers:
            if worker.is_alive():  # pragma: no cover - only on a hung worker
                worker.kill()
                worker.join(timeout=5.0)
