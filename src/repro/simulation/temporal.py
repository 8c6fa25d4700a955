"""Temporal log simulation: months of click data, like the paper's logs.

The paper mines *five months* of Bing query and click logs (July–November
2008).  Log volume is an implicit parameter of the method: with one week of
clicks a tail entity's surrogates may have attracted too few queries for
any candidate to clear IPC ≥ β, while with five months the long tail fills
in.  This module makes that dimension explicit:

* :class:`MonthlyLogSimulator` splits the simulated traffic into named
  monthly slices (each month re-runs the click simulator with its own seed
  and a month-specific traffic multiplier, so months differ the way real
  months do);
* :func:`cumulative_click_logs` merges the slices into growing prefixes
  ("first month", "first two months", ...), which is what the log-volume
  worlds of :func:`repro.eval.experiments.prefix_worlds` consume.

Everything stays deterministic for a fixed world seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.clicklog.log import ClickLog
from repro.simulation.world import SimulatedWorld, user_model_for
from repro.simulation.users import ClickSimulator, QueryPopulation, UserModelConfig

__all__ = ["MonthlySlice", "MonthlyLogSimulator", "cumulative_click_logs"]

PAPER_MONTHS: tuple[str, ...] = ("2008-07", "2008-08", "2008-09", "2008-10", "2008-11")
"""The five months of logs the paper uses (July to November 2008)."""


@dataclass(frozen=True)
class MonthlySlice:
    """One month of simulated click data."""

    month: str
    click_log: ClickLog
    sessions: int

    @property
    def click_volume(self) -> int:
        """Total clicks recorded in the month."""
        return self.click_log.total_click_volume()


class MonthlyLogSimulator:
    """Produces per-month click-log slices for an existing simulated world.

    The world supplies the catalog, the corpus, the search engine and the
    query population; this class only re-runs the *click* side month by
    month.  Month-to-month variation comes from two sources: a different
    RNG seed per month and a mild traffic multiplier (seasonality).
    """

    def __init__(
        self, world: SimulatedWorld, *, months: tuple[str, ...] = PAPER_MONTHS
    ) -> None:
        if not months:
            raise ValueError("months must be non-empty")
        self.world = world
        self.months = months
        self.sessions_per_month = max(world.config.session_count // len(months), 1)
        # A gentle ramp: later months carry a bit more traffic, the way
        # holiday-season query volume grows.
        self.seasonality = tuple(0.85 + 0.1 * index for index in range(len(months)))

    def _month_user_model(self, index: int) -> UserModelConfig:
        base = user_model_for(self.world.config)
        sessions = max(int(self.sessions_per_month * self.seasonality[index]), 1)
        return replace(base, session_count=sessions, seed=base.seed + 101 * (index + 1))

    def simulate_month(self, index: int, population: QueryPopulation | None = None) -> MonthlySlice:
        """Simulate the month at *index* (0-based) and return its slice."""
        if not 0 <= index < len(self.months):
            raise IndexError(f"month index {index} out of range")
        population = population or self.world.population
        user_model = self._month_user_model(index)
        simulator = ClickSimulator(self.world.engine, self.world.catalog, user_model)
        click_log = simulator.simulate_click_log(population)
        return MonthlySlice(
            month=self.months[index],
            click_log=click_log,
            sessions=user_model.session_count,
        )

    def simulate_all(self) -> list[MonthlySlice]:
        """Simulate every month in order."""
        population = self.world.population
        return [self.simulate_month(index, population) for index in range(len(self.months))]


def cumulative_click_logs(slices: list[MonthlySlice]) -> list[tuple[str, ClickLog]]:
    """Growing prefixes of the monthly slices.

    Returns one (label, merged click log) pair per prefix — "through
    2008-07", "through 2008-08", ... — which is the x-axis of the
    log-volume experiment.
    """
    prefixes: list[tuple[str, ClickLog]] = []
    merged = ClickLog()
    for monthly_slice in slices:
        for record in monthly_slice.click_log.iter_records():
            merged.add(record)
        prefixes.append((f"through {monthly_slice.month}", ClickLog(merged.iter_records())))
    return prefixes
