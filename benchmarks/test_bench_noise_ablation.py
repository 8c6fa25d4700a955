"""Ablation benchmark: robustness of IPC/ICR selection to click noise.

Reads the grid rows of four small toy worlds whose misclick probability
and share of navigational-noise traffic are scaled by 0.5–4, mined at the
paper's operating point, and asserts that the method keeps working — and
keeps being reasonably precise — as the logs get noisier, which is the
robustness claim implicit in using five months of raw Bing traffic.
"""

from __future__ import annotations

from benchmarks.conftest import write_result
from repro.eval.experiments import NOISE_WORLDS
from repro.eval.reporting import render_noise_ablation, row_at


def test_ablation_click_noise(quality_rows, results_dir):
    write_result(results_dir, "ablation_click_noise.txt", render_noise_ablation(quality_rows))

    # NOISE_WORLDS runs from x0.5 (cleanest) to x4 (noisiest).
    points = [row_at(quality_rows, world) for world in NOISE_WORLDS]
    # The miner still produces synonyms at every noise level ...
    assert all(point.synonyms > 0 for point in points)
    # ... and precision does not collapse even at 4x the baseline noise.
    assert points[-1].precision > 0.3
    # The clean end of the sweep is at least as precise as the noisiest end
    # (small worlds are jittery, so allow a modest tolerance).
    assert points[0].weighted_precision >= points[-1].weighted_precision - 0.15
