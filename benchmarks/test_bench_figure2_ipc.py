"""Figure 2 — IPC threshold sweep (precision / weighted precision / coverage).

Regenerates the series behind the paper's Figure 2 on the movies dataset:
β swept from 2 to 10 with ICR disabled.  The benchmark runs the full sweep
(mine once with open thresholds, then re-filter per β) and asserts the
qualitative shape the paper reports: precision rises and coverage increase
falls as β grows, while even strict settings keep a substantial coverage
gain.
"""

from __future__ import annotations

from benchmarks.conftest import write_result
from repro.eval.experiments import run_ipc_sweep
from repro.eval.reporting import render_ipc_sweep


def test_figure2_ipc_sweep(movies_world, results_dir):
    result = run_ipc_sweep(movies_world)

    rendered = render_ipc_sweep(result)
    write_result(results_dir, "figure2_ipc_sweep.txt", rendered)

    points = result.points
    assert [point.ipc_threshold for point in points] == list(range(2, 11))

    # Shape: precision (and weighted precision) increase with β ...
    assert points[-1].precision >= points[0].precision
    assert points[-1].weighted_precision >= points[0].weighted_precision
    # ... while coverage increase and the number of synonyms decrease.
    coverage = [point.coverage_increase for point in points]
    assert coverage == sorted(coverage, reverse=True)
    synonyms = [point.synonym_count for point in points]
    assert synonyms == sorted(synonyms, reverse=True)

    # The paper's headline: even a strict IPC threshold more than doubles
    # coverage; at the moderate β=4 operating point this must hold here too.
    by_threshold = {point.ipc_threshold: point for point in points}
    assert by_threshold[4].coverage_increase > 1.0
    # And the loose end of the sweep trades that coverage for precision.
    assert by_threshold[2].precision < by_threshold[8].precision
