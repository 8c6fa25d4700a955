"""Simulation substrate.

The paper's raw materials are proprietary: Bing's search API, five months
of Bing query/click logs, a box-office movie list, an MSN Shopping camera
catalog and Wikipedia dumps.  This package builds faithful synthetic
equivalents (see DESIGN.md §2 for the substitution table):

* :mod:`repro.simulation.catalog` — entity catalogs D1 (100 movies) and
  D2 (882 cameras);
* :mod:`repro.simulation.aliases` — the ground-truth oracle ``F``: which
  strings are true synonyms, hypernyms, hyponyms or merely related;
* :mod:`repro.simulation.webgen` — a synthetic web corpus whose pages play
  the role of entity surrogates;
* :mod:`repro.simulation.wikipedia` — a simulated redirect/disambiguation
  table with popularity-biased coverage (for the Table I baseline);
* :mod:`repro.simulation.users` — the searcher population and click model;
* :mod:`repro.simulation.logs` — generation of Search Data ``A`` and Click
  Data ``L``;
* :mod:`repro.simulation.scenario` — one-call construction of a complete
  simulated world for a dataset.
"""

from repro.simulation.catalog import Entity, EntityCatalog, movie_catalog, camera_catalog
from repro.simulation.aliases import AliasKind, AliasRecord, AliasTable, build_alias_table
from repro.simulation.webgen import WebCorpusGenerator, WebGenConfig
from repro.simulation.wikipedia import SimulatedWikipedia, WikipediaConfig
from repro.simulation.users import UserModelConfig, QueryPopulation, ClickSimulator
from repro.simulation.logs import generate_logs, GeneratedLogs
from repro.simulation.scenario import ScenarioConfig, SimulatedWorld, build_world, user_model_for
from repro.simulation.temporal import MonthlyLogSimulator, MonthlySlice, cumulative_click_logs

__all__ = [
    "Entity",
    "EntityCatalog",
    "movie_catalog",
    "camera_catalog",
    "AliasKind",
    "AliasRecord",
    "AliasTable",
    "build_alias_table",
    "WebCorpusGenerator",
    "WebGenConfig",
    "SimulatedWikipedia",
    "WikipediaConfig",
    "UserModelConfig",
    "QueryPopulation",
    "ClickSimulator",
    "generate_logs",
    "GeneratedLogs",
    "ScenarioConfig",
    "SimulatedWorld",
    "build_world",
    "user_model_for",
    "MonthlyLogSimulator",
    "MonthlySlice",
    "cumulative_click_logs",
]
