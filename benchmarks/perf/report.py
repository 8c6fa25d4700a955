"""Result records, the append-only ledger, ``compare`` and ``selfcheck``."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Any, Iterable, Sequence

from benchmarks.perf.metrics import END_TO_END, PER_LAYER, Metric

__all__ = [
    "RESULTS_DIR",
    "append_ledger",
    "build_result",
    "compare",
    "load_result",
    "render_attribution",
    "render_record",
    "selfcheck_rows",
    "write_json",
]

RESULT_FORMAT = 1
RESULT_KIND = "perf-result"
RESULTS_DIR = Path(__file__).resolve().parent / "results"
# A layer metric measured once has no spread of its own; it counts as
# moved in ``compare`` only beyond this share.
_UNMEASURED_SPREAD = 0.05


def _git_sha() -> str:
    try:
        found = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=Path(__file__).parent,
            capture_output=True, text=True, timeout=10, check=False,
        )  # fmt: skip
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return found.stdout.strip() if found.returncode == 0 else "unknown"


def build_result(
    records: Iterable[dict[str, Any]], *, seed: int, pinned_cpu: int | None
) -> dict[str, Any]:
    return {
        "format": RESULT_FORMAT,
        "kind": RESULT_KIND,
        "created_unix": round(time.time(), 3),
        "git_sha": _git_sha(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "pinned_cpu": pinned_cpu,
        "python": platform.python_version(),
        "workloads": {record["workload"]: record for record in records},
    }


def write_json(payload: Any, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(path.name + ".tmp")
    temp.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(temp, path)


def load_result(path: Path) -> dict[str, Any]:
    payload = json.loads(path.read_text(encoding="utf-8"))
    if payload.get("kind") != RESULT_KIND or payload.get("format") != RESULT_FORMAT:
        raise ValueError(f"{path}: not a format-{RESULT_FORMAT} {RESULT_KIND} file")
    return payload


def render_record(record: dict[str, Any]) -> list[str]:
    """``workload metric value unit`` lines, one per metric, plus counts."""
    name = record["workload"]
    lines = []
    for metric, entry in record["metrics"].items():
        notes = []
        if "spread" in entry:
            notes.append(f"spread {entry['spread']:.1%} over {len(entry['repeats'])} repeats")
        if "samples" in entry:
            notes.append(f"n={entry['samples']}/repeat")
        if metric == "client.match_p99_ms" and record["tail_percentile"] != 99:
            notes.append(f"p{record['tail_percentile']} (too few samples for p99)")
        suffix = f"  [{', '.join(notes)}]" if notes else ""
        lines.append(f"{name} {metric} {entry['value']:.6g} {entry['unit']}{suffix}")
    lines.append(
        f"{name} error_rate {record['error_rate']:.6g} ratio  "
        f"[sent {record['sent']}, succeeded {record['succeeded']}, failed {record['failed']}]"
    )
    return lines


def render_attribution(record: dict[str, Any]) -> list[str]:
    """Where a request's time goes, from the traced pass and the live run."""
    metrics = record["metrics"]
    name = record["workload"]
    lines = [f"{name}: self time per request in the traced in-process pass (us)"]
    for span, value in sorted(record["self_us_per_request"].items(), key=lambda kv: -kv[1]):
        lines.append(f"  {span:<24} {value:10.1f}")
    fuzzy = (
        metrics["matching.match_fuzzy_us"]["value"]
        * metrics["matching.fuzzy_attempt_share"]["value"]
    )
    lines.append(f"  match_fuzzy_us x fuzzy_attempt_share = {fuzzy:.1f} us per query")
    p50_us = metrics["match_p50_ms"]["raw_value"] * 1e3  # as measured, like its parts
    parts = {
        "client.encode_us": metrics["client.encode_us"]["value"],
        "client.decode_us": metrics["client.decode_us"]["value"],
        "server.hist_match_p50_ms": metrics["server.hist_match_p50_ms"]["value"] * 1e3,
        "client.unattributed_us": metrics["client.unattributed_us"]["value"],
    }
    lines.append(f"{name}: match_p50_ms as measured = {p50_us:.1f} us =")
    for part, value in parts.items():
        lines.append(f"  {part:<26} {value:9.1f} us  ({value / p50_us:.0%})")
    return lines


# --------------------------------------------------------------------------- #
# Ledger
# --------------------------------------------------------------------------- #


def append_ledger(
    result: dict[str, Any], record: dict[str, Any], results_dir: Path = RESULTS_DIR
) -> Path:
    """Append one compact row to ``BENCH_<workload>.json`` (never rewritten)."""
    path = results_dir / f"BENCH_{record['workload']}.json"
    ledger = (
        json.loads(path.read_text(encoding="utf-8"))
        if path.exists()
        else {"format": RESULT_FORMAT, "workload": record["workload"], "rows": []}
    )
    ledger["rows"].append(
        {
            "git_sha": result["git_sha"],
            "created_unix": result["created_unix"],
            "seed": record["seed"],
            "repeats": record["repeats"],
            "nproc": result["nproc"],
            "python": result["python"],
            "fingerprint": record["fingerprint"],
            "sent": record["sent"],
            "failed": record["failed"],
            # metric -> [median, spread]; spread is null for single measurements.
            "metrics": {
                name: [entry["value"], entry.get("spread")]
                for name, entry in record["metrics"].items()
            },
        }
    )
    write_json(ledger, path)
    return path


# --------------------------------------------------------------------------- #
# compare / selfcheck
# --------------------------------------------------------------------------- #


def _worsening(metric: Metric, before: float, after: float) -> float:
    """Share of *before* by which *after* is worse (negative = better)."""
    if before == 0:
        return 0.0
    change = (after - before) / abs(before)
    return change if metric.better == "lower" else -change


def compare(a: dict[str, Any], b: dict[str, Any]) -> tuple[list[str], int]:
    """Per (workload, end-to-end metric) verdict lines and the regression count.

    ``unresolved`` (never "unchanged") when the repeat-to-repeat spread of
    either side is wider than the metric's bound; otherwise a median that
    moved by more than the bound is a regression or an improvement, and
    anything inside the bound is no movement this benchmark can resolve.  Under each moved metric
    the layer metrics that moved by more than their own spread are listed,
    so a compare of two SHAs names the layer.
    """
    lines = [f"A: {a['git_sha'][:12]} seed {a['seed']}   B: {b['git_sha'][:12]} seed {b['seed']}"]
    regressions = 0
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        record_a, record_b = a["workloads"][name], b["workloads"][name]
        same = record_a["fingerprint"] == record_b["fingerprint"]
        lines.append(f"{name}: same workload: {'yes' if same else 'no'}")
        metrics_a, metrics_b = record_a["metrics"], record_b["metrics"]
        moved_layers = []
        for metric in PER_LAYER:
            if metric.name not in metrics_a or metric.name not in metrics_b:
                continue
            entry_a, entry_b = metrics_a[metric.name], metrics_b[metric.name]
            noise = max(
                entry_a.get("spread", _UNMEASURED_SPREAD),
                entry_b.get("spread", _UNMEASURED_SPREAD),
            )
            worse = _worsening(metric, entry_a["value"], entry_b["value"])
            if abs(worse) > noise:
                moved_layers.append(
                    f"      {metric.name}: {entry_a['value']:.6g} -> {entry_b['value']:.6g} "
                    f"{metric.unit} ({'worse' if worse > 0 else 'better'} by {abs(worse):.1%})"
                )
        for metric in END_TO_END:
            entry_a, entry_b = metrics_a[metric.name], metrics_b[metric.name]
            assert metric.bound is not None
            noise = max(entry_a["spread"], entry_b["spread"])
            worse = _worsening(metric, entry_a["value"], entry_b["value"])
            if noise > metric.bound:
                verdict = f"unresolved (spread {noise:.1%} > bound {metric.bound:.0%})"
            elif worse > metric.bound:
                verdict = f"regressed by {worse:.1%} (bound {metric.bound:.0%})"
                regressions += 1
            elif -worse > metric.bound:
                verdict = f"improved by {-worse:.1%} (bound {metric.bound:.0%})"
            else:
                verdict = "no movement"
            lines.append(
                f"  {metric.name}: {entry_a['value']:.6g} -> {entry_b['value']:.6g} "
                f"{metric.unit}: {verdict}"
            )
            if verdict.startswith(("regressed", "improved")):
                lines.extend(moved_layers or ["      (no layer metrics in both results)"])
    return lines, regressions


def selfcheck_rows(
    first: Sequence[dict[str, Any]], second: Sequence[dict[str, Any]]
) -> tuple[list[str], list[str]]:
    """Two sets of runs of one tree: table lines and the failing metric names.

    A metric passes when the two medians differ by no more than its
    bound.  The repeat-to-repeat spreads are printed beside them: a wide
    one means a slow episode fell inside that run, which the median is
    there to absorb.
    """
    by_name = {record["workload"]: record for record in second}
    lines = [
        f"{'workload':<22} {'metric':<26} {'median 1':>11} {'median 2':>11} "
        f"{'spread 1':>8} {'spread 2':>8} {'bound':>6}  verdict"
    ]
    failing: list[str] = []
    for record in first:
        other = by_name[record["workload"]]
        for metric in END_TO_END:
            one, two = record["metrics"][metric.name], other["metrics"][metric.name]
            assert metric.bound is not None
            drift = max(
                _worsening(metric, one["value"], two["value"]),
                _worsening(metric, two["value"], one["value"]),
            )
            passed = drift <= metric.bound
            if not passed:
                failing.append(f"{record['workload']}/{metric.name}")
            lines.append(
                f"{record['workload']:<22} {metric.name:<26} {one['value']:>11.5g} "
                f"{two['value']:>11.5g} {one['spread']:>8.1%} {two['spread']:>8.1%} "
                f"{metric.bound:>6.0%}  {'pass' if passed else 'FAIL'}"
            )
    return lines, failing
