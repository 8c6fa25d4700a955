"""Ablation benchmarks for the design choices called out in DESIGN.md §5.

Not part of the paper's evaluation, but they quantify the two knobs the
method leaves implicit: the surrogate top-k cut-off and the respective
contribution of the IPC and ICR measures.
"""

from __future__ import annotations

from benchmarks.conftest import write_result
from repro.eval.experiments import MEASURES
from repro.eval.reporting import render_measure_ablation, render_surrogate_ablation, row_at


def test_ablation_surrogate_topk(quality_rows, results_dir):
    write_result(
        results_dir, "ablation_surrogate_topk.txt", render_surrogate_ablation(quality_rows)
    )

    by_k = {k: row_at(quality_rows, "movies", k=k) for k in (3, 5, 10)}
    # A larger surrogate set can only widen the candidate pool, so coverage
    # (and the synonym count) grows with k at a fixed operating point.
    assert by_k[10].synonyms >= by_k[5].synonyms
    assert by_k[5].synonyms >= by_k[3].synonyms


def test_ablation_ipc_vs_icr(quality_rows, results_dir):
    write_result(results_dir, "ablation_ipc_vs_icr.txt", render_measure_ablation(quality_rows))

    by_label = {
        label: row_at(quality_rows, "movies", ipc=ipc, icr=icr) for label, ipc, icr in MEASURES
    }
    assert set(by_label) == {"neither", "ipc-only", "icr-only", "both"}

    # Each measure alone already filters; using both filters at least as much.
    assert by_label["ipc-only"].synonyms <= by_label["neither"].synonyms
    assert by_label["icr-only"].synonyms <= by_label["neither"].synonyms
    assert by_label["both"].synonyms <= by_label["ipc-only"].synonyms
    assert by_label["both"].synonyms <= by_label["icr-only"].synonyms

    # And the combination is the most precise configuration.
    assert by_label["both"].precision >= by_label["neither"].precision
    assert by_label["both"].precision >= by_label["ipc-only"].precision - 1e-9
    assert by_label["both"].precision >= by_label["icr-only"].precision - 1e-9
