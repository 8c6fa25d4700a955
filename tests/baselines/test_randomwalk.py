"""Tests for the random-walk baseline."""

import pytest

from repro.baselines.randomwalk import (
    MAX_SYNONYMS,
    PROBABILITY_THRESHOLD,
    SELF_TRANSITION,
    RandomWalkSynonymFinder,
)
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
        # The paper's "Walk(0.8)": a lazy walk that stays put with p = 0.8.
        assert SELF_TRANSITION == pytest.approx(0.8)


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


class TestSynonymProduction:
    def test_find_one_selects_related_query(self, graph):
        finder = RandomWalkSynonymFinder(graph)
        entry = finder.find_one("indy 4")
        assert "indiana jones 4" in entry.synonyms

    def test_threshold_filters_weak_queries(self, graph):
        finder = RandomWalkSynonymFinder(graph)
        distribution = finder.walk_distribution("indy 4")
        strong = {query for query, mass in distribution.items() if mass >= PROBABILITY_THRESHOLD}
        assert set(finder.find_one("indy 4").synonyms) == strong
        assert "harrison ford" not in strong

    def test_max_synonyms_cap(self):
        # Twelve queries sharing the start query's only URL each settle
        # ~1/12 of the mass, all above the threshold; the cap keeps eight.
        hub = ClickLog.from_tuples(
            [("start", "https://hub.example", 10)]
            + [(f"fan query {index}", "https://hub.example", 10) for index in range(12)]
        )
        synonyms = RandomWalkSynonymFinder(hub).find_one("start").synonyms
        assert len(synonyms) == MAX_SYNONYMS

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
