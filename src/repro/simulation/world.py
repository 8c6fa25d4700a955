"""One-call construction of a complete simulated world.

A :class:`SimulatedWorld` bundles everything an experiment needs: the
entity catalog, the ground-truth alias table, the synthetic web corpus, the
search engine over it, Search Data ``A``, Click Data ``L`` and the
simulated Wikipedia.  :func:`build_world` builds all of it from a single
:class:`WorldConfig`, deterministically for a given seed.

Three presets mirror the paper's setup:

* ``WorldConfig.movies()``   — D1, 100 movie titles;
* ``WorldConfig.cameras()``  — D2, 882 camera names;
* ``WorldConfig.toy()``      — a small, fast world for unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Literal

from repro.clicklog.log import ClickLog, SearchLog
from repro.search.documents import Corpus
from repro.search.engine import SearchEngine
from repro.simulation.aliases import AliasTable, build_alias_table
from repro.simulation.catalog import EntityCatalog, camera_catalog, movie_catalog
from repro.simulation.logs import generate_logs
from repro.simulation.users import QueryPopulation, UserModelConfig
from repro.simulation.webgen import WebCorpusGenerator, WebGenConfig
from repro.simulation.wikipedia import SimulatedWikipedia

__all__ = ["WorldConfig", "SimulatedWorld", "build_world", "user_model_for"]


@dataclass(frozen=True)
class WorldConfig:
    """Everything needed to build one simulated world.

    ``session_count`` and ``seed`` are the one home of a world's traffic
    volume and randomness: the user model always runs with this session
    count and a seed derived from this seed (:func:`user_model_for`), and
    the web corpus with another seed derived from it, so ``user_model``
    only carries behaviour and ``webgen`` only the corpus's shape.
    """

    dataset: Literal["movies", "cameras", "toy"] = "movies"
    entity_count: int | None = None
    session_count: int = 60_000
    seed: int = 11
    webgen: WebGenConfig | None = None
    user_model: UserModelConfig | None = None

    # ------------------------------------------------------------------ #
    # Presets
    # ------------------------------------------------------------------ #

    @classmethod
    def movies(cls, **overrides) -> "WorldConfig":
        """The D1 preset: 100 movies, paper-scale click volume."""
        return replace(cls(dataset="movies", entity_count=100, session_count=60_000), **overrides)

    @classmethod
    def cameras(cls, **overrides) -> "WorldConfig":
        """The D2 preset: 882 cameras, long-tail click volume.

        Canonical camera names are verbose ("Canox EON 4571 Mark II"), so the
        preset's user model makes them rare as literal queries — the property
        behind the random-walk baseline's low hit ratio on this dataset.
        """
        config = cls(
            dataset="cameras",
            entity_count=882,
            session_count=120_000,
            user_model=UserModelConfig(canonical_weight=2.0),
        )
        return replace(config, **overrides)

    @classmethod
    def toy(cls, **overrides) -> "WorldConfig":
        """A tiny fast world (20 movies) for unit tests and doctests."""
        config = cls(
            dataset="toy",
            entity_count=20,
            session_count=6_000,
            webgen=WebGenConfig(list_page_count=8, background_page_count=10),
        )
        return replace(config, **overrides)


@dataclass
class SimulatedWorld:
    """The fully-built simulation: data, engine, logs and ground truth."""

    config: WorldConfig
    catalog: EntityCatalog
    alias_table: AliasTable
    corpus: Corpus
    engine: SearchEngine
    search_log: SearchLog
    click_log: ClickLog
    population: QueryPopulation
    wikipedia: SimulatedWikipedia

    def canonical_queries(self) -> list[str]:
        """The input strings U of the synonym-finding problem (normalized)."""
        return [entity.normalized_name for entity in self.catalog]

    def summary(self) -> dict[str, int]:
        """Human-readable size summary (pages, log sizes, coverage)."""
        return {
            "entities": len(self.catalog),
            "pages": len(self.corpus),
            "search_tuples": len(self.search_log),
            "click_tuples": len(self.click_log),
            "click_volume": self.click_log.total_click_volume(),
            "distinct_click_queries": len(self.click_log.queries()),
            "wikipedia_articles": self.wikipedia.article_count,
        }


def _build_catalog(config: WorldConfig) -> EntityCatalog:
    # An unset ``entity_count`` is the dataset's preset size; 0 is not.
    size = config.entity_count
    if config.dataset == "movies":
        return movie_catalog(size=100 if size is None else size, seed=config.seed + 1)
    if config.dataset == "cameras":
        return camera_catalog(size=882 if size is None else size, seed=config.seed + 2)
    if config.dataset == "toy":
        return movie_catalog(size=20 if size is None else size, seed=config.seed + 3)
    raise ValueError(f"unknown dataset {config.dataset!r}")


# Offset from the world seed to the user model's seed, per dataset
# (the cameras preset has drawn its clicks from seed 43 at seed 11).
_USER_SEED_OFFSET = {"movies": 31, "cameras": 32, "toy": 31}

# Offset from the world seed to the web corpus's seed, per dataset
# (the toy preset has drawn its pages from seed 17 at seed 11).
_WEB_SEED_OFFSET = {"movies": 23, "cameras": 23, "toy": 6}


def user_model_for(config: WorldConfig) -> UserModelConfig:
    """The user model a world built from *config* simulates: the config's
    behaviour fields with its session count and a seed derived from its seed."""
    return replace(
        config.user_model or UserModelConfig(),
        session_count=config.session_count,
        seed=config.seed + _USER_SEED_OFFSET[config.dataset],
    )


def build_world(config: WorldConfig | None = None) -> SimulatedWorld:
    """Build the complete simulated world described by *config*."""
    config = config or WorldConfig()

    catalog = _build_catalog(config)
    alias_table = build_alias_table(catalog, seed=config.seed + 11)

    webgen_config = replace(
        config.webgen or WebGenConfig(), seed=config.seed + _WEB_SEED_OFFSET[config.dataset]
    )
    corpus = WebCorpusGenerator(webgen_config).generate(catalog, alias_table)
    engine = SearchEngine(corpus)

    logs = generate_logs(engine, catalog, alias_table, user_model_for(config))
    wikipedia = SimulatedWikipedia.build(catalog, alias_table)

    return SimulatedWorld(
        config=config,
        catalog=catalog,
        alias_table=alias_table,
        corpus=corpus,
        engine=engine,
        search_log=logs.search_log,
        click_log=logs.click_log,
        population=logs.population,
        wikipedia=wikipedia,
    )
