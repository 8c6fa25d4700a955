"""Evaluation framework: ground-truth labelling, metrics and experiments.

* :mod:`repro.eval.labeling` — the ground-truth oracle (the role human
  judges play in the paper);
* :mod:`repro.eval.metrics` — Precision, Weighted Precision, Coverage
  Increase (Section IV-A) and the per-method Table I summary (Hit Ratio /
  Expansion Ratio, Section IV-B);
* :mod:`repro.eval.experiments` — runners that regenerate Figure 2,
  Figure 3 and Table I, plus the ablations listed in DESIGN.md;
* :mod:`repro.eval.reporting` — plain-text rendering of the results in the
  same layout the paper uses.
"""

from repro.eval.labeling import GroundTruthOracle
from repro.eval.metrics import (
    precision,
    weighted_precision,
    coverage_increase,
    MethodSummary,
    summarize_method,
)
from repro.eval.experiments import (
    SweepPoint,
    IPCSweepResult,
    ICRSweepResult,
    Table1Result,
    run_ipc_sweep,
    run_icr_sweep,
    run_table1,
    run_surrogate_k_ablation,
    run_measure_ablation,
    run_noise_ablation,
    run_log_volume_sweep,
    LogVolumePoint,
)
from repro.eval.reporting import (
    render_ipc_sweep,
    render_icr_sweep,
    render_table1,
    render_method_summary,
)

__all__ = [
    "GroundTruthOracle",
    "precision",
    "weighted_precision",
    "coverage_increase",
    "MethodSummary",
    "summarize_method",
    "SweepPoint",
    "IPCSweepResult",
    "ICRSweepResult",
    "Table1Result",
    "run_ipc_sweep",
    "run_icr_sweep",
    "run_table1",
    "run_surrogate_k_ablation",
    "run_measure_ablation",
    "run_noise_ablation",
    "run_log_volume_sweep",
    "LogVolumePoint",
    "render_ipc_sweep",
    "render_icr_sweep",
    "render_table1",
    "render_method_summary",
]
