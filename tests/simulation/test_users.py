"""Tests for the searcher population and click simulator."""

import pytest

from repro.clicklog.log import ClickLog
from repro.simulation.aliases import build_alias_table
from repro.simulation.catalog import movie_catalog
from repro.simulation.users import (
    POSITION_BIAS,
    RESULTS_PER_QUERY,
    ClickSimulator,
    QueryPopulation,
    QuerySpec,
    UserModelConfig,
)
from repro.simulation.webgen import WebCorpusGenerator, WebGenConfig
from repro.search.engine import SearchEngine


@pytest.fixture(scope="module")
def small_world():
    catalog = movie_catalog(size=12, seed=21)
    alias_table = build_alias_table(catalog, seed=21)
    corpus = WebCorpusGenerator(
        WebGenConfig(list_page_count=4, background_page_count=5, seed=21)
    ).generate(catalog, alias_table)
    engine = SearchEngine(corpus)
    config = UserModelConfig(session_count=4_000, seed=21)
    population = QueryPopulation.from_alias_table(catalog, alias_table, config)
    return catalog, alias_table, engine, population, config


class TestUserModelConfig:
    def test_invalid_session_count(self):
        with pytest.raises(ValueError):
            UserModelConfig(session_count=0)

    def test_invalid_click_probability(self):
        with pytest.raises(ValueError):
            UserModelConfig(click_prob_generic_page=1.5)

    def test_position_bias_is_decreasing(self):
        bias = POSITION_BIAS
        assert all(earlier >= later for earlier, later in zip(bias, bias[1:]))
        assert len(bias) == RESULTS_PER_QUERY


class TestQuerySpec:
    def test_weight_must_be_positive(self):
        with pytest.raises(ValueError):
            QuerySpec(query="q", kind="synonym", weight=0.0)


class TestQueryPopulation:
    def test_contains_all_kinds(self, small_world):
        _catalog, _aliases, _engine, population, _config = small_world
        kinds = {spec.kind for spec in population}
        assert {"canonical", "synonym", "hypernym", "aspect", "noise"} <= kinds

    def test_merges_duplicate_queries(self, small_world):
        catalog, _aliases, _engine, population, _config = small_world
        # Franchise hypernyms are claimed by several entities and must merge
        # into one spec whose intents span those entities.
        hypernym_specs = [spec for spec in population if spec.kind == "hypernym"]
        multi_intent = [spec for spec in hypernym_specs if len(spec.intents) > 1]
        assert multi_intent, "expected a shared hypernym query"

    def test_noise_queries_have_no_intent(self, small_world):
        _catalog, _aliases, _engine, population, _config = small_world
        for spec in population:
            if spec.kind == "noise":
                assert spec.intents == ()

    def test_total_weight_positive(self, small_world):
        _catalog, _aliases, _engine, population, _config = small_world
        assert sum(spec.weight for spec in population) > 0

    def test_queries_of_kind(self, small_world):
        _catalog, _aliases, _engine, population, _config = small_world
        assert sum(1 for spec in population if spec.kind == "canonical") == 12


class TestClickSimulator:
    @pytest.fixture(scope="class")
    def click_log(self, small_world):
        catalog, _aliases, engine, population, config = small_world
        simulator = ClickSimulator(engine, catalog, config)
        return simulator.simulate_click_log(population)

    def test_produces_clicks(self, click_log):
        assert isinstance(click_log, ClickLog)
        assert click_log.total_click_volume() > 0

    def test_synonym_clicks_land_on_intended_entity(self, small_world, click_log):
        catalog, alias_table, engine, _population, _config = small_world
        checked = 0
        for entity in catalog:
            for alias in alias_table.synonyms_of(entity.entity_id):
                clicked = click_log.clicks_by_url(alias)
                if not clicked:
                    continue
                on_target = sum(
                    clicks
                    for url, clicks in clicked.items()
                    if engine.corpus[url].entity_id == entity.entity_id
                )
                assert on_target / sum(clicked.values()) > 0.5
                checked += 1
        assert checked > 5

    def test_aspect_queries_touch_few_pages(self, small_world, click_log):
        catalog, _aliases, _engine, population, _config = small_world
        aspect_queries = [spec.query for spec in population if spec.kind == "aspect"]
        distinct_counts = [
            len(click_log.urls_clicked_for(query))
            for query in aspect_queries
            if query in click_log
        ]
        assert distinct_counts, "expected some aspect queries to receive clicks"
        assert sum(distinct_counts) / len(distinct_counts) <= 4.0

    def test_deterministic_given_seed(self, small_world):
        catalog, _aliases, engine, population, config = small_world
        first = ClickSimulator(engine, catalog, config).simulate_click_log(population)
        second = ClickSimulator(engine, catalog, config).simulate_click_log(population)
        assert first.total_click_volume() == second.total_click_volume()
        assert set(first.queries()) == set(second.queries())

    def test_empty_population(self, small_world):
        catalog, _aliases, engine, _population, config = small_world
        simulator = ClickSimulator(engine, catalog, config)
        empty = simulator.simulate_click_log(QueryPopulation([]))
        assert len(empty) == 0
