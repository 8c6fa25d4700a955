"""Tests for the plain-text report rendering."""

import pytest

from repro.eval.experiments import (
    AblationPoint,
    ICRSweepResult,
    IPCSweepResult,
    SweepPoint,
    Table1Result,
)
from repro.eval.metrics import MethodSummary
from repro.eval.reporting import (
    render_ablation,
    render_icr_sweep,
    render_ipc_sweep,
    render_method_summary,
    render_table1,
)


def _point(ipc=4, icr=0.1):
    return SweepPoint(
        ipc_threshold=ipc,
        icr_threshold=icr,
        precision=0.75,
        weighted_precision=0.85,
        coverage_increase=1.5,
        synonym_count=42,
        hit_count=10,
    )


class TestRenderers:
    def test_ipc_sweep_mentions_thresholds_and_percentages(self):
        result = IPCSweepResult(dataset="movies", points=[_point(2), _point(4)])
        text = render_ipc_sweep(result)
        assert "Figure 2" in text
        assert "75.0%" in text and "150.0%" in text
        assert text.count("\n") == 3

    def test_icr_sweep_groups_by_ipc(self):
        result = ICRSweepResult(dataset="movies", curves={2: [_point(2, 0.1)], 4: [_point(4, 0.1)]})
        text = render_icr_sweep(result)
        assert "IPC 2:" in text and "IPC 4:" in text

    def test_table1_layout(self):
        table = Table1Result(
            rows=[
                MethodSummary(
                    dataset="movies", method="Us", originals=100, hits=99,
                    synonyms=437, precision=0.8, weighted_precision=0.9,
                )
            ]
        )
        text = render_table1(table)
        assert "Table I" in text
        assert "Us" in text and "437" in text and "99.0%" in text

    def test_method_summary_line(self):
        summary = MethodSummary(
            method="Us", dataset="movies", originals=100, hits=99, synonyms=437,
            precision=0.8, weighted_precision=0.9,
        )
        line = render_method_summary(summary)
        assert "Us on movies" in line
        assert "99/100" in line

    def test_ablation_table(self):
        points = [
            AblationPoint(label="both", precision=0.9, weighted_precision=0.95,
                          coverage_increase=1.2, synonym_count=50),
        ]
        text = render_ablation("Measure ablation", points)
        assert text.startswith("Measure ablation")
        assert "both" in text and "90.0%" in text

    def test_percentages_rounded_to_one_decimal(self):
        result = IPCSweepResult(dataset="movies", points=[_point()])
        assert "85.0%" in render_ipc_sweep(result)
