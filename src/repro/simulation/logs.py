"""End-to-end generation of Search Data ``A`` and Click Data ``L``.

The paper's miner consumes two aggregated datasets; this module produces
both from the lower-level pieces:

* ``A`` comes from issuing every canonical entity string to the search
  engine and keeping the top :data:`SEARCH_DATA_K` results (exactly how the
  paper builds ``A`` with the Bing API);
* ``L`` comes from running the simulated searcher population against the
  same engine and aggregating their clicks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.clicklog.log import ClickLog, SearchLog
from repro.clicklog.records import SearchRecord
from repro.search.engine import SearchEngine
from repro.simulation.aliases import AliasTable
from repro.simulation.catalog import EntityCatalog
from repro.simulation.users import ClickSimulator, QueryPopulation, UserModelConfig

__all__ = ["SEARCH_DATA_K", "GeneratedLogs", "generate_logs"]

SEARCH_DATA_K = 10
"""The paper's top-k cut-off for Search Data: results kept per canonical query."""


@dataclass
class GeneratedLogs:
    """The two paper datasets and the query population that produced ``L``."""

    search_log: SearchLog
    click_log: ClickLog
    population: QueryPopulation


def generate_logs(
    engine: SearchEngine,
    catalog: EntityCatalog,
    alias_table: AliasTable,
    user_model: UserModelConfig,
) -> GeneratedLogs:
    """Produce Search Data ``A`` and Click Data ``L``."""
    # Search Data is keyed by the normalized canonical string: that is the
    # query-identity used throughout the reproduction (see repro.text).
    search_log = SearchLog()
    for entity in catalog:
        query = entity.normalized_name
        for result in engine.search(query, k=SEARCH_DATA_K):
            search_log.add(SearchRecord(query=query, url=result.url, rank=result.rank))

    population = QueryPopulation.from_alias_table(catalog, alias_table, user_model)
    simulator = ClickSimulator(engine, catalog, user_model)
    click_log = simulator.simulate_click_log(population)

    return GeneratedLogs(
        search_log=search_log,
        click_log=click_log,
        population=population,
    )
