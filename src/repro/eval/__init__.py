"""Evaluation framework: ground-truth labelling, metrics and the one sweep.

* :mod:`repro.eval.labeling` — the ground-truth oracle (the role human
  judges play in the paper);
* :mod:`repro.eval.metrics` — Precision, Weighted Precision and Coverage
  Increase (Section IV-A);
* :mod:`repro.eval.experiments` — :func:`run_quality`, which evaluates the
  :data:`GRID` of (world, k, β, γ) points behind Figure 2, Figure 3,
  Table I, the three ablations and the log-volume sweep, one
  :class:`QualityRow` per point (Hit Ratio and Expansion Ratio, Section
  IV-B, are properties of the row);
* :mod:`repro.eval.reporting` — the seven tables rendered from those rows in
  the layout the paper uses.
"""

from repro.eval.labeling import GroundTruthOracle
from repro.eval.metrics import (
    precision,
    weighted_precision,
    coverage_increase,
)
from repro.eval.experiments import (
    GRID,
    QualityRow,
    noise_worlds,
    prefix_worlds,
    run_quality,
)
from repro.eval.reporting import (
    TABLES,
    render_ipc_sweep,
    render_icr_sweep,
    render_table1,
)

__all__ = [
    "GroundTruthOracle",
    "precision",
    "weighted_precision",
    "coverage_increase",
    "GRID",
    "QualityRow",
    "run_quality",
    "prefix_worlds",
    "noise_worlds",
    "TABLES",
    "render_ipc_sweep",
    "render_icr_sweep",
    "render_table1",
]
