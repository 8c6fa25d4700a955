"""Run one workload end to end and assemble its metric record."""

from __future__ import annotations

import os
import shutil
import tempfile
from pathlib import Path
from typing import Any

from benchmarks.perf.layers import trace_serving
from benchmarks.perf.metrics import END_TO_END, PER_LAYER
from benchmarks.perf.offline import run_offline
from benchmarks.perf.serving import build_generations, run_serving
from benchmarks.perf.stats import Span, median, spread
from benchmarks.perf.workloads import Workload, build_offline_inputs, build_serving_inputs

__all__ = ["WORK_ROOT", "pin_to_one_cpu", "run_workload"]

# Scratch space inside the checkout (the benchmark may write nowhere else);
# listed in .gitignore and removed after every run.
WORK_ROOT = Path(__file__).resolve().parents[2] / ".bench_work"


def pin_to_one_cpu() -> int | None:
    """Pin this process (and the daemon it spawns) to one CPU.

    With one closed-loop client the generator and the server never run at
    the same time, so sharing a CPU costs nothing — while on a small
    virtual machine every request/response hand-off across two vCPUs is an
    inter-processor wake-up whose cost swings 2-3x between minutes.  On
    this box that swing, not the program, dominated unpinned latency.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _metric(
    series: dict[str, list[float]], name: str, unit: str, samples: int | None = None
) -> dict[str, Any]:
    record: dict[str, Any] = {
        "value": median(series[name]),
        "unit": unit,
        "spread": spread(series[name]),
        "repeats": series[name],
    }
    raw = series.get("raw." + name)
    if raw is not None:  # timed metric: the value is at reference machine speed
        record["raw_value"] = median(raw)
        record["raw_repeats"] = raw
    if samples is not None:
        record["samples"] = samples
    return record


def run_workload(
    workload: Workload,
    seed: int,
    *,
    repeats: int | None = None,
    seconds: float = 0.0,
    traced: bool = False,
    work_root: Path = WORK_ROOT,
) -> tuple[dict[str, Any], list[Span]]:
    """Drive *workload* and return ``(record, spans of the traced pass)``.

    *repeats* fixes the timed repeats of both halves; otherwise each half
    repeats (at least five times) until its share of *seconds* is used.
    """
    work_root.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root))
    try:
        inputs = build_serving_inputs(workload, seed)
        generations, build_timings = build_generations(
            inputs, workdir, prime_all=bool(workload.churn_every)
        )
        offline_dir = workdir / "offline"
        offline_dir.mkdir()
        offline_inputs = build_offline_inputs(workload, seed, offline_dir)
        serving = run_serving(
            workload, inputs, generations, workdir,
            repeats=repeats, budget_s=seconds * workload.serving_share,
        )  # fmt: skip
        offline = run_offline(
            offline_inputs, offline_dir,
            repeats=repeats, budget_s=seconds * (1.0 - workload.serving_share),
        )  # fmt: skip
        trace = trace_serving(workload, inputs, generations, workdir) if traced else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    series: dict[str, list[float]] = {**serving.series, **offline.series, **build_timings}
    series["artifact_bytes_per_entry"] = [
        (serving.artifact_bytes + offline.artifact_bytes) / (serving.entries + offline.entries)
    ]
    metrics = {
        metric.name: _metric(series, metric.name, metric.unit, serving.samples.get(metric.name))
        for metric in END_TO_END
    }
    attempted = serving.sent + offline.attempted
    failed = serving.failed + offline.failed
    record: dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "repeats": len(series["match_p50_ms"]),
        "tail_percentile": serving.percentile_used,
        "fingerprint": {
            "requests_sha256": inputs.requests_sha256,
            "catalog_sha256": inputs.catalog_sha256,
            "offline_logs_sha256": offline_inputs.logs_sha256,
        },
        "sent": attempted,
        "succeeded": attempted - failed,
        "failed": failed,
        "metrics": metrics,
    }
    spans: list[Span] = []
    if trace is not None:
        layer: dict[str, float] = {**serving.extras, **offline.extras, **trace.rows}
        layer["client.unattributed_us"] = (
            (metrics["match_p50_ms"]["raw_value"] - layer["server.hist_match_p50_ms"]) * 1e3
            - layer["client.encode_us"]
            - layer["client.decode_us"]
        )
        record["sent"] += trace.attempted
        record["succeeded"] += trace.attempted - trace.failed
        record["failed"] += trace.failed
        for metric in PER_LAYER:
            if metric.name in layer:
                metrics[metric.name] = {"value": layer[metric.name], "unit": metric.unit}
            else:
                metrics[metric.name] = _metric(series, metric.name, metric.unit)
        record["self_us_per_request"] = trace.self_us_per_request
        spans = trace.spans
    record["error_rate"] = record["failed"] / record["sent"]
    return record, spans
