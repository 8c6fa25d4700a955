"""Figure 3 — ICR threshold sweep for IPC ∈ {2, 4, 6}.

Regenerates the three weighted-precision / coverage-increase curves of the
paper's Figure 3 on the movies dataset (γ swept from 0.01 to 0.9 for each
IPC threshold) from the grid rows and asserts their shape: within every
curve, tightening γ raises weighted precision and lowers coverage; across
curves, a higher IPC threshold starts from higher precision and lower
coverage.
"""

from __future__ import annotations

from benchmarks.conftest import write_result
from repro.eval.experiments import ICR_VALUES
from repro.eval.reporting import render_icr_sweep, row_at


def test_figure3_icr_sweep(quality_rows, results_dir):
    write_result(results_dir, "figure3_icr_sweep.txt", render_icr_sweep(quality_rows))

    curves = {
        ipc: [row_at(quality_rows, "movies", ipc=ipc, icr=icr) for icr in sorted(ICR_VALUES)]
        for ipc in (2, 4, 6)
    }
    for curve in curves.values():
        # Weighted precision is (weakly) higher at the strict end of the curve.
        assert curve[-1].weighted_precision >= curve[0].weighted_precision
        # Coverage and synonym counts shrink as γ tightens.
        assert curve[-1].coverage_increase <= curve[0].coverage_increase
        assert curve[-1].synonyms <= curve[0].synonyms

    # Across curves (at the loosest γ): higher IPC ⇒ higher starting
    # precision and lower starting coverage, which is why the paper's three
    # curves are nested.
    loose = {ipc: curve[0] for ipc, curve in curves.items()}
    assert loose[6].weighted_precision >= loose[2].weighted_precision
    assert loose[6].coverage_increase <= loose[2].coverage_increase
