"""Log-volume sweep: how much click history does the method need?

The paper mines five months of logs (July–November 2008) but never varies
that window.  This benchmark makes log volume an explicit axis: it splits
the movies world's traffic into monthly slices and re-mines on growing
prefixes, asserting the expected saturation shape
(more months → more coverage and synonyms, with diminishing returns).
"""

from __future__ import annotations

from benchmarks.conftest import write_result
from repro.eval.experiments import run_log_volume_sweep


def _render(points) -> str:
    lines = [
        "Log-volume sweep (movies, IPC 4, ICR 0.1)",
        f"{'Prefix':<18} {'Clicks':>9} {'HitRatio':>9} {'Synonyms':>9} {'Precision':>10} {'CoverageInc':>12}",
    ]
    for point in points:
        lines.append(
            f"{point.label:<18} {point.click_volume:>9} {point.hit_ratio * 100:>8.1f}% "
            f"{point.synonym_count:>9} {point.precision * 100:>9.1f}% "
            f"{point.coverage_increase * 100:>11.1f}%"
        )
    return "\n".join(lines)


def test_log_volume_sweep(movies_world, results_dir):
    points = run_log_volume_sweep(movies_world, months=5)
    write_result(results_dir, "log_volume_sweep.txt", _render(points))

    assert len(points) == 5
    volumes = [point.click_volume for point in points]
    assert volumes == sorted(volumes)

    first, last = points[0], points[-1]
    # More history never hurts hit ratio or synonym count materially ...
    assert last.hit_ratio >= first.hit_ratio - 0.05
    assert last.synonym_count >= first.synonym_count
    # ... and the marginal gain of the last month is smaller than the gain
    # of the first two months (saturation).
    early_gain = points[1].synonym_count - points[0].synonym_count
    late_gain = points[-1].synonym_count - points[-2].synonym_count
    assert late_gain <= max(early_gain, 1) * 2
