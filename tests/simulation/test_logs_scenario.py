"""Tests for log generation and the one-call scenario builder."""

import hashlib

import pytest

from repro.simulation import scenario
from repro.simulation.logs import SEARCH_DATA_K, generate_logs
from repro.simulation.scenario import ScenarioConfig, build_world, user_model_for
from repro.simulation.users import UserModelConfig

# sha256 of _fingerprint(build_world(ScenarioConfig.toy())).  Every record
# of the toy world is behind it, so a refactor of the simulator that moves
# any search result, click count, alias or redirect fails here.
TOY_WORLD_SHA256 = "13a4da2ed74f3413a28df1576d6b5dc647cf88565a86cc859c8e5a47e6953f8b"


def _fingerprint(world) -> str:
    """sha256 over the world's sorted search-log, click-log, alias-table and
    Wikipedia-redirect records."""
    rows = sorted(
        [("search", r.query, r.url, r.rank) for r in world.search_log.iter_records()]
        + [("click", r.query, r.url, r.clicks) for r in world.click_log.iter_records()]
        + [("alias", r.entity_id, r.alias, r.kind.value, r.weight) for r in world.alias_table]
        + [
            ("redirect", entity.entity_id, redirect)
            for entity in world.catalog
            for redirect in world.wikipedia.redirects_for(entity.entity_id)
        ]
    )
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()


class TestGenerateLogs:
    def test_search_data_covers_all_canonicals(self, toy_world):
        logs = generate_logs(
            toy_world.engine,
            toy_world.catalog,
            toy_world.alias_table,
            UserModelConfig(session_count=2_000, seed=5),
        )
        for entity in toy_world.catalog:
            urls = logs.search_log.top_urls(entity.normalized_name)
            assert urls, entity.canonical_name
            assert len(urls) <= SEARCH_DATA_K


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

    def test_cameras_preset_honours_session_count_and_seed(self):
        small, large = (
            build_world(ScenarioConfig.cameras(entity_count=40, session_count=sessions))
            for sessions in (2_000, 8_000)
        )
        assert small.click_log.total_click_volume() < large.click_log.total_click_volume()
        assert user_model_for(ScenarioConfig.cameras(session_count=2_000)).session_count == 2_000
        # The scenario seed drives the user model; the default world keeps
        # the user seed (43) the preset has always had.
        assert user_model_for(ScenarioConfig.cameras()).seed == 43
        assert user_model_for(ScenarioConfig.cameras(seed=12)).seed == 44

    @pytest.mark.parametrize("preset", ["movies", "cameras", "toy"])
    def test_seed_reaches_the_web_corpus(self, preset, monkeypatch):
        class Recorded(Exception):
            pass

        seeds = []

        def recording_generator(config):
            seeds.append(config.seed)
            raise Recorded  # the corpus is all this test needs

        monkeypatch.setattr(scenario, "WebCorpusGenerator", recording_generator)
        for seed in (11, 12):
            with pytest.raises(Recorded):
                build_world(getattr(ScenarioConfig, preset)(entity_count=10, seed=seed))
        assert seeds[0] != seeds[1]


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
        assert _fingerprint(toy_world) == _fingerprint(rebuilt) == TOY_WORLD_SHA256
