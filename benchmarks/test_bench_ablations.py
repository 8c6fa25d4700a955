"""Ablation benchmarks for the design choices called out in DESIGN.md §5.

Not part of the paper's evaluation, but they quantify the two knobs the
method leaves implicit: the surrogate top-k cut-off and the respective
contribution of the IPC and ICR measures.
"""

from __future__ import annotations

from benchmarks.conftest import write_result
from repro.eval.experiments import run_measure_ablation, run_surrogate_k_ablation
from repro.eval.reporting import render_ablation


def test_ablation_surrogate_topk(movies_world, results_dir):
    points = run_surrogate_k_ablation(movies_world, k_values=(3, 5, 10))
    write_result(
        results_dir,
        "ablation_surrogate_topk.txt",
        render_ablation("Ablation — surrogate top-k (IPC 4, ICR 0.1)", points),
    )

    by_label = {point.label: point for point in points}
    assert set(by_label) == {"k=3", "k=5", "k=10"}
    # A larger surrogate set can only widen the candidate pool, so coverage
    # (and the synonym count) grows with k at a fixed operating point.
    assert by_label["k=10"].synonym_count >= by_label["k=5"].synonym_count
    assert by_label["k=5"].synonym_count >= by_label["k=3"].synonym_count


def test_ablation_ipc_vs_icr(movies_world, results_dir):
    points = run_measure_ablation(movies_world)
    write_result(
        results_dir,
        "ablation_ipc_vs_icr.txt",
        render_ablation("Ablation — IPC vs ICR at the paper's operating point", points),
    )

    by_label = {point.label: point for point in points}
    assert set(by_label) == {"neither", "ipc-only", "icr-only", "both"}

    # Each measure alone already filters; using both filters at least as much.
    assert by_label["ipc-only"].synonym_count <= by_label["neither"].synonym_count
    assert by_label["icr-only"].synonym_count <= by_label["neither"].synonym_count
    assert by_label["both"].synonym_count <= by_label["ipc-only"].synonym_count
    assert by_label["both"].synonym_count <= by_label["icr-only"].synonym_count

    # And the combination is the most precise configuration.
    assert by_label["both"].precision >= by_label["neither"].precision
    assert by_label["both"].precision >= by_label["ipc-only"].precision - 1e-9
    assert by_label["both"].precision >= by_label["icr-only"].precision - 1e-9
