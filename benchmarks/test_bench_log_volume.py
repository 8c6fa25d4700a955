"""Log-volume sweep: how much click history does the method need?

The paper mines five months of logs (July–November 2008) but never varies
that window.  The grid makes log volume an explicit axis: the movies world's
traffic is split into monthly slices and mined on growing prefixes, and
this benchmark asserts the expected saturation shape
(more months → more coverage and synonyms, with diminishing returns).
"""

from __future__ import annotations

from benchmarks.conftest import write_result
from repro.eval.experiments import PREFIX_WORLDS
from repro.eval.reporting import render_log_volume, row_at


def test_log_volume_sweep(quality_rows, results_dir):
    write_result(results_dir, "log_volume_sweep.txt", render_log_volume(quality_rows))

    points = [row_at(quality_rows, world) for world in PREFIX_WORLDS]
    assert len(points) == 5
    volumes = [point.click_volume for point in points]
    assert volumes == sorted(volumes)

    first, last = points[0], points[-1]
    # More history never hurts hit ratio or synonym count materially ...
    assert last.hit_ratio >= first.hit_ratio - 0.05
    assert last.synonyms >= first.synonyms
    # ... and the marginal gain of the last month is smaller than the gain
    # of the first two months (saturation).
    early_gain = points[1].synonyms - points[0].synonyms
    late_gain = points[-1].synonyms - points[-2].synonyms
    assert late_gain <= max(early_gain, 1) * 2
