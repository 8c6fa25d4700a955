"""Temporal log simulation: months of click data, like the paper's logs.

The paper mines *five months* of Bing query and click logs (July–November
2008).  Log volume is an implicit parameter of the method: with one week of
clicks a tail entity's surrogates may have attracted too few queries for
any candidate to clear IPC ≥ β, while with five months the long tail fills
in.  :func:`cumulative_month_logs` makes that dimension explicit: it re-runs
the click simulator of a world once per month of :data:`PAPER_MONTHS`, with
the month's own seed and a month-specific traffic multiplier so months
differ the way real months do, and returns the growing prefixes ("first
month", "first two months", ...) that the log-volume worlds of
:func:`repro.eval.experiments.prefix_worlds` consume.

Everything stays deterministic for a fixed world seed.
"""

from __future__ import annotations

from dataclasses import replace

from repro.clicklog.log import ClickLog
from repro.simulation.users import ClickSimulator
from repro.simulation.world import SimulatedWorld, user_model_for

__all__ = ["PAPER_MONTHS", "cumulative_month_logs"]

PAPER_MONTHS: tuple[str, ...] = ("2008-07", "2008-08", "2008-09", "2008-10", "2008-11")
"""The five months of logs the paper uses (July to November 2008)."""


def cumulative_month_logs(world: SimulatedWorld) -> list[ClickLog]:
    """One click log per prefix of :data:`PAPER_MONTHS`: the clicks of the
    first month, of the first two months, ..., of all five.

    The world supplies the catalog, the search engine and the query
    population; only the *click* side is re-run, month by month.  Month
    ``i`` has its own RNG seed and a gentle traffic ramp (later months carry
    a bit more traffic, the way holiday-season query volume grows).
    """
    base = user_model_for(world.config)
    sessions_per_month = max(world.config.session_count // len(PAPER_MONTHS), 1)
    merged = ClickLog()
    prefixes: list[ClickLog] = []
    for index in range(len(PAPER_MONTHS)):
        sessions = max(int(sessions_per_month * (0.85 + 0.1 * index)), 1)
        user_model = replace(base, session_count=sessions, seed=base.seed + 101 * (index + 1))
        simulator = ClickSimulator(world.engine, world.catalog, user_model)
        for record in simulator.simulate_click_log(world.population).iter_records():
            merged.add(record)
        prefixes.append(ClickLog(merged.iter_records()))
    return prefixes
