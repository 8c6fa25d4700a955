"""Figure 2 — IPC threshold sweep (precision / weighted precision / coverage).

Regenerates the series behind the paper's Figure 2 on the movies dataset:
β swept from 2 to 10 with ICR disabled.  It renders the sweep from the
grid rows (mined once with open thresholds, re-filtered per β) and asserts the
qualitative shape the paper reports: precision rises and coverage increase
falls as β grows, while even strict settings keep a substantial coverage
gain.
"""

from __future__ import annotations

from benchmarks.conftest import write_result
from repro.eval.reporting import render_ipc_sweep, row_at


def test_figure2_ipc_sweep(quality_rows, results_dir):
    write_result(results_dir, "figure2_ipc_sweep.txt", render_ipc_sweep(quality_rows))

    points = [row_at(quality_rows, "movies", ipc=ipc, icr=0.0) for ipc in range(2, 11)]

    # Shape: precision (and weighted precision) increase with β ...
    assert points[-1].precision >= points[0].precision
    assert points[-1].weighted_precision >= points[0].weighted_precision
    # ... while coverage increase and the number of synonyms decrease.
    coverage = [point.coverage_increase for point in points]
    assert coverage == sorted(coverage, reverse=True)
    synonyms = [point.synonyms for point in points]
    assert synonyms == sorted(synonyms, reverse=True)

    # The paper's headline: even a strict IPC threshold more than doubles
    # coverage; at the moderate β=4 operating point this must hold here too.
    by_threshold = {point.ipc: point for point in points}
    assert by_threshold[4].coverage_increase > 1.0
    # And the loose end of the sweep trades that coverage for precision.
    assert by_threshold[2].precision < by_threshold[8].precision
