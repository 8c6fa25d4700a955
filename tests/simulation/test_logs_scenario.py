"""Tests for log generation and the one-call scenario builder."""

import pytest

from repro.simulation.logs import LogGenerationConfig, generate_logs
from repro.simulation.scenario import ScenarioConfig, build_world
from repro.simulation.users import UserModelConfig


class TestLogGenerationConfig:
    def test_invalid_surrogate_k(self):
        with pytest.raises(ValueError):
            LogGenerationConfig(surrogate_k=0)


class TestGenerateLogs:
    def test_search_data_covers_all_canonicals(self, toy_world):
        config = LogGenerationConfig(
            surrogate_k=5, user_model=UserModelConfig(session_count=2_000, seed=5)
        )
        logs = generate_logs(toy_world.engine, toy_world.catalog, toy_world.alias_table, config)
        for entity in toy_world.catalog:
            urls = logs.search_log.top_urls(entity.normalized_name)
            assert urls, entity.canonical_name
            assert len(urls) <= 5

    def test_summary_keys(self, toy_world):
        config = LogGenerationConfig(
            surrogate_k=5, user_model=UserModelConfig(session_count=1_000, seed=5)
        )
        logs = generate_logs(toy_world.engine, toy_world.catalog, toy_world.alias_table, config)
        summary = logs.summary()
        assert {"search_tuples", "click_tuples", "click_volume", "distinct_clicked_urls"} <= set(summary)
        assert summary["click_volume"] > 0


class TestScenarioConfig:
    def test_presets(self):
        assert ScenarioConfig.movies().entity_count == 100
        assert ScenarioConfig.cameras().entity_count == 882
        assert ScenarioConfig.toy().entity_count == 20

    def test_preset_overrides(self):
        config = ScenarioConfig.toy(session_count=123)
        assert config.session_count == 123

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            build_world(ScenarioConfig(dataset="gadgets"))  # type: ignore[arg-type]


class TestBuildWorld:
    def test_toy_world_complete(self, toy_world):
        summary = toy_world.summary()
        assert summary["entities"] == 20
        assert summary["pages"] > 50
        assert summary["click_volume"] > 1_000
        assert summary["wikipedia_articles"] > 10

    def test_canonical_queries_are_normalized(self, toy_world):
        from repro.text.normalize import normalize

        for query in toy_world.canonical_queries():
            assert query == normalize(query)

    def test_search_log_contains_canonicals(self, toy_world):
        for query in toy_world.canonical_queries():
            assert query in toy_world.search_log

    def test_world_is_deterministic(self, toy_world):
        rebuilt = build_world(ScenarioConfig.toy())
        assert rebuilt.summary() == toy_world.summary()
        assert rebuilt.canonical_queries() == toy_world.canonical_queries()
