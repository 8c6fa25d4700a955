"""End-to-end generation of Search Data ``A`` and Click Data ``L``.

The paper's miner consumes two aggregated datasets; this module produces
both from the lower-level pieces:

* ``A`` comes from issuing every canonical entity string to the search
  engine and keeping the top-k results (exactly how the paper builds ``A``
  with the Bing API);
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

__all__ = ["LogGenerationConfig", "GeneratedLogs", "generate_logs"]


@dataclass(frozen=True)
class LogGenerationConfig:
    """Parameters of log generation.

    ``surrogate_k`` is the paper's top-k cut-off for Search Data (how many
    results per canonical query are retained); the user model has its own
    ``results_per_query`` for what simulated users see.
    """

    surrogate_k: int = 10
    user_model: UserModelConfig = UserModelConfig()

    def __post_init__(self) -> None:
        if self.surrogate_k <= 0:
            raise ValueError("surrogate_k must be positive")


@dataclass
class GeneratedLogs:
    """The two paper datasets and the query population that produced ``L``."""

    search_log: SearchLog
    click_log: ClickLog
    population: QueryPopulation

    def summary(self) -> dict[str, int]:
        """Small human-readable summary used by examples and reports."""
        return {
            "search_tuples": len(self.search_log),
            "click_tuples": len(self.click_log),
            "distinct_click_queries": len(self.click_log.queries()),
            "click_volume": self.click_log.total_click_volume(),
            "distinct_clicked_urls": len(self.click_log.urls()),
        }


def generate_logs(
    engine: SearchEngine,
    catalog: EntityCatalog,
    alias_table: AliasTable,
    config: LogGenerationConfig | None = None,
) -> GeneratedLogs:
    """Produce Search Data ``A`` and Click Data ``L``."""
    config = config or LogGenerationConfig()

    # Search Data is keyed by the normalized canonical string: that is the
    # query-identity used throughout the reproduction (see repro.text).
    search_log = SearchLog()
    for entity in catalog:
        query = entity.normalized_name
        for result in engine.search(query, k=config.surrogate_k):
            search_log.add(SearchRecord(query=query, url=result.url, rank=result.rank))

    population = QueryPopulation.from_alias_table(catalog, alias_table, config.user_model)
    simulator = ClickSimulator(engine, catalog, config.user_model)
    click_log = simulator.simulate_click_log(population)

    return GeneratedLogs(
        search_log=search_log,
        click_log=click_log,
        population=population,
    )
