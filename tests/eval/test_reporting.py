"""Tests for the plain-text report rendering."""

import pytest

from repro.eval.experiments import GRID, QualityRow
from repro.eval.reporting import (
    TABLES,
    render_icr_sweep,
    render_ipc_sweep,
    render_measure_ablation,
    render_table1,
)


def _row(world="movies", k=10, ipc=4, icr=0.1, method="Us", **values):
    fields = dict(
        originals=100, hits=99, synonyms=42, precision=0.75, weighted_precision=0.85,
        coverage_increase=1.5, click_volume=1000,
    )
    fields.update(values)
    if method != "Us":
        k = ipc = icr = None
    return QualityRow(
        world=world, seed=11, method=method, surrogate_k=k, ipc=ipc, icr=icr,
        fingerprint=None, **fields,
    )


@pytest.fixture()
def grid_rows():
    """A row for every grid point plus both baselines on each Table I world."""
    rows = [_row(world, k, ipc, icr) for world, k, ipc, icr in GRID]
    for world in ("movies", "cameras"):
        rows += [_row(world, method="Wiki"), _row(world, method="Walk(0.8)")]
    return rows


class TestRenderers:
    def test_ipc_sweep_mentions_thresholds_and_percentages(self, grid_rows):
        text = render_ipc_sweep(grid_rows)
        assert "Figure 2" in text
        assert "75.0%" in text and "150.0%" in text
        assert text.count("\n") == 10  # title, header, β 2–10

    def test_icr_sweep_groups_by_ipc(self, grid_rows):
        text = render_icr_sweep(grid_rows)
        assert "IPC 2:" in text and "IPC 4:" in text and "IPC 6:" in text

    def test_table1_layout(self):
        rows = [_row(synonyms=437, precision=0.8), _row(method="Wiki"), _row(method="Walk(0.8)")]
        text = render_table1(rows)
        assert "Table I" in text
        assert "Us" in text and "437" in text and "99.0%" in text and "537.0%" in text
        assert "cameras" not in text  # only the worlds the rows cover

    def test_ablation_table(self, grid_rows):
        text = render_measure_ablation(grid_rows)
        assert text.startswith("Ablation — IPC vs ICR")
        assert "both" in text and "75.0%" in text

    def test_percentages_rounded_to_one_decimal(self, grid_rows):
        assert "85.0%" in render_icr_sweep(grid_rows)

    def test_every_table_renders_from_rows_alone(self, grid_rows):
        assert len(TABLES) == 7
        for render in TABLES.values():
            assert render(grid_rows).count("\n") >= 3
