"""The long-lived match daemon: HTTP/JSON serving over a compiled artifact.

:mod:`repro.serving` answers queries in-process; this package puts a
resident process in front of it — the last mile of the paper's pipeline,
where live Web queries arrive over the wire:

* :class:`~repro.server.daemon.MatchDaemon` owns one
  :class:`~repro.serving.service.MatchService` and exposes it through a
  threaded stdlib HTTP server: ``/match`` (single and batched),
  ``/resolve`` (entities *ranked* over the artifact's embedded click
  priors, not just the tied set), ``/healthz``, ``/stats`` and an admin
  ``/reload``.  A background watcher thread polls ``maybe_reload()`` so an
  incremental publish hot-swaps under live traffic — a full republish is
  cold-loaded, a delta sidecar (layout 3, see ``docs/ARTIFACT_FORMAT.md``)
  is applied in memory and counted in ``/stats`` — and SIGINT/SIGTERM
  shut the daemon down cleanly (stats flushed, socket closed).
* :mod:`repro.server.metrics` is the observability layer the daemon
  records every request into: per-endpoint **latency histograms**
  (``/stats`` ``"latency"``: count + p50/p90/p99/max over fixed
  log-spaced buckets) and an optional **sampled JSONL access log**
  (:class:`~repro.server.metrics.AccessLog`, off by default), which the
  daemon builds from its ``access_log_path`` / ``access_log_sample``
  options.
* :class:`~repro.server.supervisor.ServerSupervisor` is the
  multi-process front end: ``--procs N`` runs N worker processes, each a
  ``MatchDaemon`` with the caller's options and a ``worker_id`` (which
  binds it with ``SO_REUSEPORT``), on one port, and the kernel spreads
  connections across them; the parent propagates SIGINT/SIGTERM and reaps
  every worker.
* :class:`~repro.server.client.ServerClient` is the matching stdlib-only
  client, used by the tests, the benchmark load generator and the CI
  smoke job.

CLI: ``python -m repro server --artifact dict.synart`` runs the daemon
(``--procs N`` for the multi-process front end, ``--access-log`` /
``--access-log-sample`` for the access log).  Everything here is standard
library only — no web framework required.
"""

from repro.server.client import ServerClient, ServerError
from repro.server.daemon import (
    DEFAULT_PORT,
    MatchDaemon,
    match_payload,
    ranked_payload,
    reuse_port_supported,
)
from repro.server.metrics import AccessLog, LatencyHistogram, MetricsRegistry
from repro.server.supervisor import ServerSupervisor

__all__ = [
    "DEFAULT_PORT",
    "AccessLog",
    "LatencyHistogram",
    "MatchDaemon",
    "MetricsRegistry",
    "ServerClient",
    "ServerError",
    "ServerSupervisor",
    "match_payload",
    "ranked_payload",
    "reuse_port_supported",
]
