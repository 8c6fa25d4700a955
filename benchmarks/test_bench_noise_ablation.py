"""Ablation benchmark: robustness of IPC/ICR selection to click noise.

Rebuilds small worlds with the misclick probability and the share of
navigational-noise traffic scaled up, and re-runs the miner at the paper's
operating point (world construction dominates the run time) and
asserts that the method keeps working — and keeps being reasonably precise —
as the logs get noisier, which is the robustness claim implicit in using
five months of raw Bing traffic.
"""

from __future__ import annotations

from benchmarks.conftest import write_result
from repro.eval.experiments import run_noise_ablation
from repro.eval.reporting import render_ablation


def test_ablation_click_noise(results_dir):
    points = run_noise_ablation(
        noise_multipliers=(0.5, 1.0, 2.0, 4.0), entity_count=20, session_count=6_000
    )
    write_result(
        results_dir,
        "ablation_click_noise.txt",
        render_ablation("Ablation — click-noise robustness (IPC 4, ICR 0.1)", points),
    )

    assert [point.label for point in points] == [
        "noise x0.5", "noise x1", "noise x2", "noise x4",
    ]
    # The miner still produces synonyms at every noise level ...
    assert all(point.synonym_count > 0 for point in points)
    # ... and precision does not collapse even at 4x the baseline noise.
    assert points[-1].precision > 0.3
    # The clean end of the sweep is at least as precise as the noisiest end
    # (small worlds are jittery, so allow a modest tolerance).
    assert points[0].weighted_precision >= points[-1].weighted_precision - 0.15
