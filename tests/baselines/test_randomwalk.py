"""Tests for the random-walk baseline."""

import pytest

from repro.baselines.randomwalk import RandomWalkConfig, RandomWalkSynonymFinder
from repro.clicklog.log import ClickLog


@pytest.fixture()
def graph():
    """Two queries sharing a URL plus one isolated query."""
    return ClickLog.from_tuples(
        [
            ("indy 4", "https://a.example", 50),
            ("indy 4", "https://b.example", 50),
            ("indiana jones 4", "https://a.example", 40),
            ("indiana jones 4", "https://b.example", 40),
            ("harrison ford", "https://c.example", 100),
            ("harrison ford", "https://a.example", 2),
        ]
    )


class TestConfig:
    def test_defaults(self):
        config = RandomWalkConfig()
        assert config.self_transition == pytest.approx(0.8)

    def test_invalid_self_transition(self):
        with pytest.raises(ValueError):
            RandomWalkConfig(self_transition=1.0)

    def test_invalid_steps(self):
        with pytest.raises(ValueError):
            RandomWalkConfig(steps=0)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            RandomWalkConfig(probability_threshold=-0.1)

    def test_invalid_max_synonyms(self):
        with pytest.raises(ValueError):
            RandomWalkConfig(max_synonyms=0)


class TestWalkDistribution:
    def test_distribution_sums_to_one(self, graph):
        finder = RandomWalkSynonymFinder(graph)
        distribution = finder.walk_distribution("indy 4")
        assert sum(distribution.values()) == pytest.approx(1.0)

    def test_start_node_excluded(self, graph):
        finder = RandomWalkSynonymFinder(graph)
        assert "indy 4" not in finder.walk_distribution("indy 4")

    def test_strongly_connected_query_ranks_highest(self, graph):
        finder = RandomWalkSynonymFinder(graph)
        distribution = finder.walk_distribution("indy 4")
        assert distribution["indiana jones 4"] > distribution["harrison ford"]

    def test_missing_start_query_gives_empty(self, graph):
        finder = RandomWalkSynonymFinder(graph)
        assert finder.walk_distribution("never asked query") == {}

    def test_more_steps_spread_more_mass(self, graph):
        short = RandomWalkSynonymFinder(graph, RandomWalkConfig(steps=1))
        long = RandomWalkSynonymFinder(graph, RandomWalkConfig(steps=9))
        assert len(long.walk_distribution("indy 4")) >= len(short.walk_distribution("indy 4"))


class TestSynonymProduction:
    def test_find_one_selects_related_query(self, graph):
        finder = RandomWalkSynonymFinder(graph)
        entry = finder.find_one("indy 4")
        assert "indiana jones 4" in entry.synonyms

    def test_threshold_filters_weak_queries(self, graph):
        permissive = RandomWalkSynonymFinder(graph, RandomWalkConfig(probability_threshold=0.0))
        strict = RandomWalkSynonymFinder(graph, RandomWalkConfig(probability_threshold=0.5))
        assert len(strict.find_one("indy 4").synonyms) <= len(
            permissive.find_one("indy 4").synonyms
        )

    def test_max_synonyms_cap(self, graph):
        capped = RandomWalkSynonymFinder(
            graph, RandomWalkConfig(probability_threshold=0.0, max_synonyms=1)
        )
        assert len(capped.find_one("indy 4").synonyms) == 1

    def test_unqueried_canonical_produces_nothing(self, graph):
        # The paper's observation: verbose canonical strings that were never
        # issued as queries get no synonyms from the click-graph walk.
        finder = RandomWalkSynonymFinder(graph)
        entry = finder.find_one("canox eon 4571 mark ii")
        assert not entry.has_synonyms

    def test_find_many(self, graph):
        finder = RandomWalkSynonymFinder(graph)
        result = finder.find(["indy 4", "unknown camera"])
        assert result.hit_count == 1
        assert len(result) == 2
