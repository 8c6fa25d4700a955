"""Experiment runners that regenerate the paper's figures and tables.

Each runner takes a pre-built :class:`~repro.simulation.scenario.SimulatedWorld`
(so the expensive simulation is shared across experiments) and returns a
small result dataclass that the reporting module and the benchmark harness
turn into the rows/series the paper prints.

| Runner                     | Reproduces                                   |
|---------------------------|-----------------------------------------------|
| :func:`run_ipc_sweep`     | Figure 2 (IPC precision & coverage increase)  |
| :func:`run_icr_sweep`     | Figure 3 (ICR sweep for IPC ∈ {2,4,6})        |
| :func:`run_table1`        | Table I (hits and expansion vs baselines)     |
| :func:`run_surrogate_k_ablation` | ablation: top-k surrogate cut-off      |
| :func:`run_measure_ablation`     | ablation: IPC-only vs ICR-only vs both |
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.baselines.randomwalk import SELF_TRANSITION, RandomWalkSynonymFinder
from repro.baselines.wikipedia import WikipediaSynonymFinder
from repro.core.config import MinerConfig
from repro.core.pipeline import SynonymMiner
from repro.core.types import MiningResult
from repro.eval.labeling import GroundTruthOracle
from repro.eval.metrics import (
    MethodSummary,
    coverage_increase,
    precision,
    summarize_method,
    weighted_precision,
)
from repro.simulation.scenario import SimulatedWorld

__all__ = [
    "SweepPoint",
    "IPCSweepResult",
    "ICRSweepResult",
    "Table1Result",
    "AblationPoint",
    "run_ipc_sweep",
    "run_icr_sweep",
    "run_table1",
    "run_surrogate_k_ablation",
    "run_measure_ablation",
    "run_noise_ablation",
    "LogVolumePoint",
    "run_log_volume_sweep",
]

DEFAULT_IPC_VALUES: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8, 9, 10)
DEFAULT_ICR_VALUES: tuple[float, ...] = (0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
DEFAULT_ICR_IPC_VALUES: tuple[int, ...] = (2, 4, 6)


# --------------------------------------------------------------------------- #
# Shared helpers
# --------------------------------------------------------------------------- #

def _oracle(world: SimulatedWorld) -> GroundTruthOracle:
    return GroundTruthOracle(world.catalog, world.alias_table)


def _base_miner(world: SimulatedWorld) -> SynonymMiner:
    """Miner with both thresholds fully open (score once, re-filter later)."""
    config = MinerConfig(ipc_threshold=0, icr_threshold=0.0)
    return SynonymMiner(
        click_log=world.click_log, search_log=world.search_log, config=config
    )


@dataclass(frozen=True)
class SweepPoint:
    """One point of a threshold sweep."""

    ipc_threshold: int
    icr_threshold: float
    precision: float
    weighted_precision: float
    coverage_increase: float
    synonym_count: int
    hit_count: int


# --------------------------------------------------------------------------- #
# Figure 2 — IPC sweep
# --------------------------------------------------------------------------- #

@dataclass
class IPCSweepResult:
    """Figure 2: precision / weighted precision / coverage per IPC threshold."""

    dataset: str
    points: list[SweepPoint] = field(default_factory=list)

    def series(self, metric: str) -> list[tuple[int, float]]:
        """(ipc_threshold, value) pairs for one metric column."""
        return [(point.ipc_threshold, getattr(point, metric)) for point in self.points]


def run_ipc_sweep(
    world: SimulatedWorld,
    *,
    ipc_values: Sequence[int] = DEFAULT_IPC_VALUES,
    icr_threshold: float = 0.0,
) -> IPCSweepResult:
    """Reproduce Figure 2: sweep the IPC threshold β with ICR disabled.

    The paper sweeps β from 10 down to 2 and plots precision (y) against
    coverage increase (x); this runner returns the underlying points in
    increasing-β order.
    """
    oracle = _oracle(world)
    miner = _base_miner(world)
    scored = miner.mine(world.canonical_queries())

    result = IPCSweepResult(dataset=world.config.dataset)
    for ipc_threshold in sorted(ipc_values):
        filtered = miner.reselect(
            scored, ipc_threshold=ipc_threshold, icr_threshold=icr_threshold
        )
        result.points.append(_sweep_point(filtered, oracle, world, ipc_threshold, icr_threshold))
    return result


def _sweep_point(
    filtered: MiningResult,
    oracle: GroundTruthOracle,
    world: SimulatedWorld,
    ipc_threshold: int,
    icr_threshold: float,
) -> SweepPoint:
    return SweepPoint(
        ipc_threshold=ipc_threshold,
        icr_threshold=icr_threshold,
        precision=precision(filtered, oracle),
        weighted_precision=weighted_precision(filtered, oracle, world.click_log),
        coverage_increase=coverage_increase(filtered, world.click_log),
        synonym_count=filtered.synonym_count,
        hit_count=filtered.hit_count,
    )


# --------------------------------------------------------------------------- #
# Figure 3 — ICR sweep for several IPC values
# --------------------------------------------------------------------------- #

@dataclass
class ICRSweepResult:
    """Figure 3: one curve (list of points) per IPC threshold."""

    dataset: str
    curves: dict[int, list[SweepPoint]] = field(default_factory=dict)

    def curve(self, ipc_threshold: int) -> list[SweepPoint]:
        return list(self.curves.get(ipc_threshold, ()))


def run_icr_sweep(
    world: SimulatedWorld,
    *,
    ipc_values: Sequence[int] = DEFAULT_ICR_IPC_VALUES,
    icr_values: Sequence[float] = DEFAULT_ICR_VALUES,
) -> ICRSweepResult:
    """Reproduce Figure 3: sweep ICR γ for each IPC threshold in *ipc_values*."""
    oracle = _oracle(world)
    miner = _base_miner(world)
    scored = miner.mine(world.canonical_queries())

    result = ICRSweepResult(dataset=world.config.dataset)
    for ipc_threshold in ipc_values:
        curve: list[SweepPoint] = []
        for icr_threshold in sorted(icr_values):
            filtered = miner.reselect(
                scored, ipc_threshold=ipc_threshold, icr_threshold=icr_threshold
            )
            curve.append(
                _sweep_point(filtered, oracle, world, ipc_threshold, icr_threshold)
            )
        result.curves[ipc_threshold] = curve
    return result


# --------------------------------------------------------------------------- #
# Table I — comparison against Wikipedia and the random walk
# --------------------------------------------------------------------------- #

@dataclass
class Table1Result:
    """All rows of Table I for the datasets it was run on (plus the
    precision columns the paper reports in text)."""

    rows: list[MethodSummary] = field(default_factory=list)

    def for_dataset(self, dataset: str) -> list[MethodSummary]:
        return [row for row in self.rows if row.dataset == dataset]

    def row(self, dataset: str, method: str) -> MethodSummary | None:
        for candidate in self.rows:
            if candidate.dataset == dataset and candidate.method == method:
                return candidate
        return None


def run_table1(worlds: Sequence[SimulatedWorld]) -> Table1Result:
    """Reproduce Table I on each world in *worlds* (movies, cameras).

    Methods compared:

    * ``Us``        — the core miner at the paper's operating point
      (IPC 4, ICR 0.1);
    * ``Wiki``      — Wikipedia redirect harvesting;
    * ``Walk(0.8)`` — the lazy random walk on the click graph.
    """
    table = Table1Result()
    for world in worlds:
        dataset = world.config.dataset
        oracle = _oracle(world)
        queries = world.canonical_queries()

        miner = SynonymMiner(
            click_log=world.click_log,
            search_log=world.search_log,
            config=MinerConfig.paper_default(),
        )
        us = miner.mine(queries)
        wiki = WikipediaSynonymFinder(world.wikipedia, world.catalog).find(queries)
        walk = RandomWalkSynonymFinder(world.click_log).find(queries)

        for method, result in (
            ("Us", us),
            ("Wiki", wiki),
            (f"Walk({SELF_TRANSITION:g})", walk),
        ):
            table.rows.append(
                summarize_method(method, dataset, result, oracle, world.click_log)
            )
    return table


# --------------------------------------------------------------------------- #
# Ablations (DESIGN.md §5)
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class AblationPoint:
    """One configuration of an ablation and its headline metrics."""

    label: str
    precision: float
    weighted_precision: float
    coverage_increase: float
    synonym_count: int


def run_surrogate_k_ablation(
    world: SimulatedWorld,
    *,
    k_values: Sequence[int] = (3, 5, 10),
    ipc_threshold: int = 4,
    icr_threshold: float = 0.1,
) -> list[AblationPoint]:
    """Ablate the surrogate top-k cut-off at a fixed operating point.

    k may not exceed the k the world's Search Data was materialised with
    (larger values silently see the same ranked lists).
    """
    oracle = _oracle(world)
    points: list[AblationPoint] = []
    for k in k_values:
        miner = SynonymMiner(
            click_log=world.click_log,
            search_log=world.search_log,
            config=MinerConfig(
                surrogate_k=k, ipc_threshold=ipc_threshold, icr_threshold=icr_threshold
            ),
        )
        result = miner.mine(world.canonical_queries())
        points.append(
            AblationPoint(
                label=f"k={k}",
                precision=precision(result, oracle),
                weighted_precision=weighted_precision(result, oracle, world.click_log),
                coverage_increase=coverage_increase(result, world.click_log),
                synonym_count=result.synonym_count,
            )
        )
    return points


@dataclass(frozen=True)
class LogVolumePoint:
    """Metrics of the miner after a given amount of accumulated log data."""

    label: str
    click_volume: int
    hit_ratio: float
    synonym_count: int
    precision: float
    coverage_increase: float


def run_log_volume_sweep(
    world: SimulatedWorld,
    *,
    months: int = 5,
    ipc_threshold: int = 4,
    icr_threshold: float = 0.1,
) -> list[LogVolumePoint]:
    """How much log history does the method need? (paper: five months of logs).

    Splits the world's traffic into monthly slices, then mines on growing
    prefixes of the click data (one month, two months, ...).  The expected
    shape is that hit ratio, synonym count and coverage grow with log
    volume and begin to saturate, which is why the paper can afford to work
    from a fixed five-month window.
    """
    from repro.simulation.temporal import (
        PAPER_MONTHS,
        MonthlyLogSimulator,
        cumulative_click_logs,
    )

    month_names = PAPER_MONTHS[:months] if months <= len(PAPER_MONTHS) else tuple(
        f"month-{index + 1:02d}" for index in range(months)
    )
    simulator = MonthlyLogSimulator(world, months=month_names)
    slices = simulator.simulate_all()
    oracle = _oracle(world)
    config = MinerConfig(ipc_threshold=ipc_threshold, icr_threshold=icr_threshold)

    points: list[LogVolumePoint] = []
    for label, click_log in cumulative_click_logs(slices):
        miner = SynonymMiner(click_log=click_log, search_log=world.search_log, config=config)
        result = miner.mine(world.canonical_queries())
        points.append(
            LogVolumePoint(
                label=label,
                click_volume=click_log.total_click_volume(),
                hit_ratio=result.hit_ratio(),
                synonym_count=result.synonym_count,
                precision=precision(result, oracle),
                coverage_increase=coverage_increase(result, click_log),
            )
        )
    return points


def run_noise_ablation(
    *,
    noise_multipliers: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
    entity_count: int = 20,
    session_count: int = 6_000,
    seed: int = 11,
    ipc_threshold: int = 4,
    icr_threshold: float = 0.1,
) -> list[AblationPoint]:
    """Ablate click-noise robustness (DESIGN.md §5).

    Builds a small world per noise level — scaling both the misclick
    probability and the share of navigational-noise traffic by the given
    multiplier — and mines at the paper's operating point.  Unlike the
    other runners this one constructs its own worlds, because the noise
    level is a property of the simulated user population, not a miner knob.
    """
    from repro.simulation.scenario import ScenarioConfig, build_world
    from repro.simulation.users import UserModelConfig

    base = UserModelConfig()
    points: list[AblationPoint] = []
    for multiplier in noise_multipliers:
        user_model = UserModelConfig(
            click_prob_unrelated_entity=min(base.click_prob_unrelated_entity * multiplier, 1.0),
            click_prob_generic_page=min(base.click_prob_generic_page * multiplier, 1.0),
            noise_weight=base.noise_weight * multiplier,
        )
        world = build_world(
            ScenarioConfig.toy(
                entity_count=entity_count,
                session_count=session_count,
                seed=seed,
                user_model=user_model,
            )
        )
        oracle = _oracle(world)
        miner = SynonymMiner(
            click_log=world.click_log,
            search_log=world.search_log,
            config=MinerConfig(ipc_threshold=ipc_threshold, icr_threshold=icr_threshold),
        )
        result = miner.mine(world.canonical_queries())
        points.append(
            AblationPoint(
                label=f"noise x{multiplier:g}",
                precision=precision(result, oracle),
                weighted_precision=weighted_precision(result, oracle, world.click_log),
                coverage_increase=coverage_increase(result, world.click_log),
                synonym_count=result.synonym_count,
            )
        )
    return points


def run_measure_ablation(
    world: SimulatedWorld,
    *,
    ipc_threshold: int = 4,
    icr_threshold: float = 0.1,
) -> list[AblationPoint]:
    """Ablate the two selection measures: IPC only, ICR only, both, neither."""
    oracle = _oracle(world)
    miner = _base_miner(world)
    scored = miner.mine(world.canonical_queries())

    configurations = [
        ("neither", 0, 0.0),
        ("ipc-only", ipc_threshold, 0.0),
        ("icr-only", 0, icr_threshold),
        ("both", ipc_threshold, icr_threshold),
    ]
    points: list[AblationPoint] = []
    for label, ipc_value, icr_value in configurations:
        filtered = miner.reselect(scored, ipc_threshold=ipc_value, icr_threshold=icr_value)
        points.append(
            AblationPoint(
                label=label,
                precision=precision(filtered, oracle),
                weighted_precision=weighted_precision(filtered, oracle, world.click_log),
                coverage_increase=coverage_increase(filtered, world.click_log),
                synonym_count=filtered.synonym_count,
            )
        )
    return points
