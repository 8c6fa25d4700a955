"""Plain-text rendering of the paper's tables from :class:`QualityRow` rows.

Each renderer is a pure function of the rows :func:`run_quality` returns
(or of the rows read back from ``benchmarks/results/quality.json``): it
picks the grid points its table prints and lays them out the way the paper
does.  :data:`TABLES` names the seven of them after their files in
``benchmarks/results/``.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.eval.experiments import (
    ICR_CURVES,
    ICR_VALUES,
    IPC_VALUES,
    MEASURES,
    METHODS,
    NOISE_WORLDS,
    PAPER,
    PREFIX_WORLDS,
    SURROGATE_KS,
    TABLE1_WORLDS,
    QualityRow,
)

__all__ = [
    "row_at",
    "render_ipc_sweep",
    "render_icr_sweep",
    "render_table1",
    "render_surrogate_ablation",
    "render_measure_ablation",
    "render_noise_ablation",
    "render_log_volume",
    "TABLES",
]


def _percent(value: float) -> str:
    return f"{value * 100.0:.1f}%"


def row_at(
    rows: Sequence[QualityRow],
    world: str,
    method: str = "Us",
    *,
    k: int = PAPER.surrogate_k,
    ipc: int = PAPER.ipc_threshold,
    icr: float = PAPER.icr_threshold,
) -> QualityRow:
    """The row of one grid point: *method* on *world* at (k, β, γ).

    The baselines have no thresholds, so *world* and *method* alone pick
    their rows.  Raises ``KeyError`` when the point was not run.
    """
    point = (k, ipc, icr) if method == "Us" else (None, None, None)
    for row in rows:
        if (row.world, row.method, row.surrogate_k, row.ipc, row.icr) == (world, method, *point):
            return row
    raise KeyError(f"no {method} row for {world} at k={k}, β={ipc}, γ={icr}")


def render_ipc_sweep(rows: Sequence[QualityRow]) -> str:
    """Figure 2 as a text table (one row per IPC threshold)."""
    lines = [
        "Figure 2 — IPC sweep on dataset 'movies' (ICR disabled)",
        f"{'IPC':>4}  {'Precision':>10}  {'W.Precision':>12}  {'CoverageInc':>12}  {'Synonyms':>9}  {'Hits':>5}",
    ]
    for ipc in IPC_VALUES:
        row = row_at(rows, "movies", ipc=ipc, icr=0.0)
        lines.append(
            f"{ipc:>4}  {_percent(row.precision):>10}  "
            f"{_percent(row.weighted_precision):>12}  "
            f"{_percent(row.coverage_increase):>12}  "
            f"{row.synonyms:>9}  {row.hits:>5}"
        )
    return "\n".join(lines)


def render_icr_sweep(rows: Sequence[QualityRow]) -> str:
    """Figure 3 as text: one block per IPC value, one row per ICR threshold."""
    lines = ["Figure 3 — ICR sweep on dataset 'movies'"]
    for ipc in ICR_CURVES:
        lines.append(f"  IPC {ipc}:")
        lines.append(
            f"  {'ICR':>5}  {'W.Precision':>12}  {'CoverageInc':>12}  {'Synonyms':>9}"
        )
        for icr in ICR_VALUES:
            row = row_at(rows, "movies", ipc=ipc, icr=icr)
            lines.append(
                f"  {icr:>5.2f}  "
                f"{_percent(row.weighted_precision):>12}  "
                f"{_percent(row.coverage_increase):>12}  "
                f"{row.synonyms:>9}"
            )
    return "\n".join(lines)


def render_table1(rows: Sequence[QualityRow]) -> str:
    """Table I in the paper's column layout (plus a precision column), for
    each Table I world the rows cover."""
    lines = [
        "Table I — Hits and Expansion",
        f"{'Dataset':<10} {'Method':<10} {'Orig':>6} {'Hits':>6} {'Ratio':>7} "
        f"{'Synonyms':>9} {'Expansion':>10} {'Precision':>10}",
    ]
    for world in TABLE1_WORLDS:
        if not any(row.world == world for row in rows):
            continue
        for method in METHODS:
            row = row_at(rows, world, method)
            lines.append(
                f"{row.world:<10} {row.method:<10} {row.originals:>6} {row.hits:>6} "
                f"{_percent(row.hit_ratio):>7} {row.synonyms:>9} "
                f"{_percent(row.expansion_ratio):>10} {_percent(row.precision):>10}"
            )
    return "\n".join(lines)


def _ablation(title: str, labelled: list[tuple[str, QualityRow]]) -> str:
    lines = [
        title,
        f"{'Config':<12} {'Precision':>10} {'W.Precision':>12} {'CoverageInc':>12} {'Synonyms':>9}",
    ]
    for label, row in labelled:
        lines.append(
            f"{label:<12} {_percent(row.precision):>10} "
            f"{_percent(row.weighted_precision):>12} "
            f"{_percent(row.coverage_increase):>12} {row.synonyms:>9}"
        )
    return "\n".join(lines)


def _label(world: str) -> str:
    # Derived worlds are named "<dataset> <label>": "movies through 2008-07".
    return world.split(" ", 1)[1]


def render_surrogate_ablation(rows: Sequence[QualityRow]) -> str:
    """Ablation: the surrogate top-k cut-off at the paper's operating point."""
    return _ablation(
        "Ablation — surrogate top-k (IPC 4, ICR 0.1)",
        [(f"k={k}", row_at(rows, "movies", k=k)) for k in SURROGATE_KS],
    )


def render_measure_ablation(rows: Sequence[QualityRow]) -> str:
    """Ablation: IPC only, ICR only, both, neither."""
    return _ablation(
        "Ablation — IPC vs ICR at the paper's operating point",
        [(label, row_at(rows, "movies", ipc=ipc, icr=icr)) for label, ipc, icr in MEASURES],
    )


def render_noise_ablation(rows: Sequence[QualityRow]) -> str:
    """Ablation: click-noise robustness, one noise-scaled toy world per row."""
    return _ablation(
        "Ablation — click-noise robustness (IPC 4, ICR 0.1)",
        [(_label(world), row_at(rows, world)) for world in NOISE_WORLDS],
    )


def render_log_volume(rows: Sequence[QualityRow]) -> str:
    """The log-volume sweep: one row per growing monthly prefix of movies."""
    lines = [
        "Log-volume sweep (movies, IPC 4, ICR 0.1)",
        f"{'Prefix':<18} {'Clicks':>9} {'HitRatio':>9} {'Synonyms':>9} {'Precision':>10} {'CoverageInc':>12}",
    ]
    for world in PREFIX_WORLDS:
        row = row_at(rows, world)
        lines.append(
            f"{_label(world):<18} {row.click_volume:>9} {row.hit_ratio * 100:>8.1f}% "
            f"{row.synonyms:>9} {row.precision * 100:>9.1f}% "
            f"{row.coverage_increase * 100:>11.1f}%"
        )
    return "\n".join(lines)


TABLES: dict[str, Callable[[Sequence[QualityRow]], str]] = {
    "figure2_ipc_sweep": render_ipc_sweep,
    "figure3_icr_sweep": render_icr_sweep,
    "table1_hits_expansion": render_table1,
    "ablation_surrogate_topk": render_surrogate_ablation,
    "ablation_ipc_vs_icr": render_measure_ablation,
    "ablation_click_noise": render_noise_ablation,
    "log_volume_sweep": render_log_volume,
}
"""Each table's renderer, by the name of its ``benchmarks/results/`` file."""
