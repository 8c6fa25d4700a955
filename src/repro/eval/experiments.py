"""One sweep behind every table the paper's evaluation prints.

:data:`GRID` lists each (world, k, β, γ) point that one of the seven tables
in ``benchmarks/results/`` prints, and :func:`run_quality` evaluates the grid
on the worlds it is given: for each (world, k) it mines once at the paper's
β and γ, then re-filters with :meth:`SynonymMiner.reselect` for each (β, γ)
(the scored columns hold every candidate, whatever the base selected).
Each Table I world also runs the two baselines once.  Every point becomes
one :class:`QualityRow`, and the tables are renderings of the rows
(:mod:`repro.eval.reporting`).

| Table                          | Grid points                                        |
|--------------------------------|----------------------------------------------------|
| Figure 2 (IPC sweep)           | movies, k 10, β 2–10, γ 0                          |
| Figure 3 (ICR sweep)           | movies, k 10, β ∈ {2, 4, 6}, γ 0.01–0.9            |
| Table I (hits and expansion)   | movies and cameras at k 10, β 4, γ 0.1; Wiki; Walk |
| ablation: surrogate top-k      | movies, k ∈ {3, 5, 10}, β 4, γ 0.1                 |
| ablation: IPC vs ICR           | movies, k 10, (β, γ) ∈ {0, 4} × {0, 0.1}           |
| log-volume sweep               | movies' five monthly log prefixes, k 10, β 4, γ 0.1|
| ablation: click noise          | four noise-scaled toy worlds, k 10, β 4, γ 0.1     |

The world axis is named, not configured: :func:`prefix_worlds` and
:func:`noise_worlds` build the derived worlds under their grid names.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import groupby
from operator import itemgetter
from typing import Mapping

from repro.baselines.randomwalk import SELF_TRANSITION, RandomWalkSynonymFinder
from repro.baselines.wikipedia import WikipediaSynonymFinder
from repro.core.config import MinerConfig
from repro.core.pipeline import SynonymMiner
from repro.core.types import MiningResult
from repro.eval.labeling import GroundTruthOracle
from repro.eval.metrics import coverage_increase, precision, weighted_precision
from repro.simulation.world import WorldConfig, SimulatedWorld, build_world
from repro.simulation.temporal import PAPER_MONTHS, cumulative_month_logs
from repro.simulation.users import UserModelConfig

__all__ = ["QualityRow", "GRID", "run_quality", "prefix_worlds", "noise_worlds"]

PAPER = MinerConfig()
"""The operating point every table except the two sweeps holds fixed."""
_K, _IPC, _ICR = PAPER.surrogate_k, PAPER.ipc_threshold, PAPER.icr_threshold

WALK = f"Walk({SELF_TRANSITION:g})"
METHODS = ("Us", "Wiki", WALK)
"""Table I's methods, in its row order."""

TABLE1_WORLDS = ("movies", "cameras")
PREFIX_WORLDS = tuple(f"movies through {month}" for month in PAPER_MONTHS)
NOISE_LEVELS = (0.5, 1.0, 2.0, 4.0)
NOISE_WORLDS = tuple(f"toy noise x{level:g}" for level in NOISE_LEVELS)

IPC_VALUES = (2, 3, 4, 5, 6, 7, 8, 9, 10)
"""Figure 2's β axis (γ 0)."""
ICR_VALUES = (0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
"""Figure 3's γ axis, one curve per β in :data:`ICR_CURVES`."""
ICR_CURVES = (2, 4, 6)
SURROGATE_KS = (3, 5, 10)
MEASURES = (("neither", 0, 0.0), ("ipc-only", _IPC, 0.0), ("icr-only", 0, _ICR), ("both", _IPC, _ICR))
"""The IPC-vs-ICR ablation: (label, β, γ)."""

GRID: tuple[tuple[str, int, int, float], ...] = tuple(sorted({
    *(("movies", _K, ipc, 0.0) for ipc in IPC_VALUES),
    *(("movies", _K, ipc, icr) for ipc in ICR_CURVES for icr in ICR_VALUES),
    *(("movies", _K, ipc, icr) for _, ipc, icr in MEASURES),
    *(("movies", k, _IPC, _ICR) for k in SURROGATE_KS),
    *((world, _K, _IPC, _ICR) for world in (*TABLE1_WORLDS, *PREFIX_WORLDS, *NOISE_WORLDS)),
}))
"""Every (world, k, β, γ) the tables print, each once, sorted."""


@dataclass(frozen=True)
class QualityRow:
    """One method at one grid point on one world, and what it scored.

    ``surrogate_k``, ``ipc``, ``icr`` and ``fingerprint`` (of the
    :class:`MinerConfig` the point stands for) are ``None`` on the baseline
    rows, which have no thresholds.
    """

    world: str
    seed: int
    method: str
    surrogate_k: int | None
    ipc: int | None
    icr: float | None
    fingerprint: str | None
    originals: int
    hits: int
    synonyms: int
    precision: float
    weighted_precision: float
    coverage_increase: float
    click_volume: int

    @property
    def key(self) -> tuple[str, int, str, int, int, float]:
        """What identifies the row (the fingerprint follows from k, β, γ)."""
        return (
            self.world, self.seed, self.method,
            self.surrogate_k or 0, self.ipc or 0, self.icr or 0.0,
        )

    @property
    def hit_ratio(self) -> float:
        """Share of input strings with at least one synonym (Section IV-B)."""
        return self.hits / self.originals if self.originals else 0.0

    @property
    def expansion_ratio(self) -> float:
        """(synonyms + originals) / originals (Section IV-B)."""
        return (self.synonyms + self.originals) / self.originals if self.originals else 0.0


def _row(
    name: str,
    world: SimulatedWorld,
    method: str,
    result: MiningResult,
    oracle: GroundTruthOracle,
    config: MinerConfig | None = None,
) -> QualityRow:
    return QualityRow(
        world=name,
        seed=world.config.seed,
        method=method,
        surrogate_k=config.surrogate_k if config else None,
        ipc=config.ipc_threshold if config else None,
        icr=config.icr_threshold if config else None,
        fingerprint=config.fingerprint() if config else None,
        originals=len(result),
        hits=result.hit_count,
        synonyms=result.synonym_count,
        precision=precision(result, oracle),
        weighted_precision=weighted_precision(result, oracle, world.click_log),
        coverage_increase=coverage_increase(result, world.click_log),
        click_volume=world.click_log.total_click_volume(),
    )


def run_quality(worlds: Mapping[str, SimulatedWorld]) -> list[QualityRow]:
    """Evaluate every :data:`GRID` point whose world is in *worlds*.

    *worlds* maps grid world names to worlds; grid worlds it lacks are
    skipped, so a caller that prints only the movies tables builds only the
    movies world.  Returns the rows sorted by :attr:`QualityRow.key`.
    """
    rows: list[QualityRow] = []
    for (name, k), points in groupby(GRID, key=itemgetter(0, 1)):
        world = worlds.get(name)
        if world is None:
            continue
        oracle = GroundTruthOracle(world.catalog, world.alias_table)
        miner = SynonymMiner(
            click_log=world.click_log,
            search_log=world.search_log,
            config=MinerConfig(surrogate_k=k, ipc_threshold=_IPC, icr_threshold=_ICR),
        )
        scored = miner.mine(world.canonical_queries())
        for _, _, ipc, icr in points:
            config = miner.config.with_thresholds(ipc=ipc, icr=icr)
            result = miner.reselect(scored, config)
            rows.append(_row(name, world, "Us", result, oracle, config))

    for name in TABLE1_WORLDS:
        world = worlds.get(name)
        if world is None:
            continue
        oracle = GroundTruthOracle(world.catalog, world.alias_table)
        queries = world.canonical_queries()
        wiki = WikipediaSynonymFinder(world.wikipedia, world.catalog).find(queries)
        walk = RandomWalkSynonymFinder(world.click_log).find(queries)
        rows.append(_row(name, world, "Wiki", wiki, oracle))
        rows.append(_row(name, world, WALK, walk, oracle))
    return sorted(rows, key=lambda row: row.key)


def prefix_worlds(movies: SimulatedWorld) -> dict[str, SimulatedWorld]:
    """The log-volume axis: *movies* with its click log replaced by each
    growing prefix of :data:`PAPER_MONTHS` of simulated monthly traffic.

    The paper mines five months of logs but never varies that window; the
    expected shape is that hit ratio, synonym count and coverage grow with
    log volume and begin to saturate.
    """
    return {
        name: replace(movies, click_log=click_log)
        for name, click_log in zip(PREFIX_WORLDS, cumulative_month_logs(movies))
    }


def noise_worlds() -> dict[str, SimulatedWorld]:
    """The click-noise axis: toy worlds whose misclick probabilities and
    share of navigational-noise traffic are scaled by each of
    :data:`NOISE_LEVELS` (noise is a property of the simulated users, not a
    miner knob, so each level is its own world)."""
    base = UserModelConfig()
    worlds: dict[str, SimulatedWorld] = {}
    for name, level in zip(NOISE_WORLDS, NOISE_LEVELS):
        user_model = UserModelConfig(
            click_prob_unrelated_entity=min(base.click_prob_unrelated_entity * level, 1.0),
            click_prob_generic_page=min(base.click_prob_generic_page * level, 1.0),
            noise_weight=base.noise_weight * level,
        )
        worlds[name] = build_world(WorldConfig.toy(user_model=user_model))
    return worlds
