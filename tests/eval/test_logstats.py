"""Tests for click-log descriptive statistics."""

import pytest

from repro.clicklog.log import ClickLog
from repro.eval.logstats import compute_stats, head_share, rank_frequency


@pytest.fixture()
def click_log():
    return ClickLog.from_tuples(
        [
            ("popular query", "https://a.example", 90),
            ("popular query", "https://b.example", 10),
            ("medium query", "https://a.example", 20),
            ("rare query", "https://c.example", 1),
            ("another rare", "https://c.example", 1),
        ]
    )


class TestComputeStats:
    def test_counts(self, click_log):
        stats = compute_stats(click_log)
        assert stats.distinct_queries == 4
        assert stats.distinct_urls == 3
        assert stats.total_clicks == 122

    def test_mean_and_median(self, click_log):
        stats = compute_stats(click_log)
        assert stats.mean_clicks_per_query == pytest.approx(122 / 4)
        assert stats.median_clicks_per_query == pytest.approx((1 + 20) / 2)

    def test_max_and_singletons(self, click_log):
        stats = compute_stats(click_log)
        assert stats.max_clicks_per_query == 100
        assert stats.singleton_query_share == pytest.approx(0.5)

    def test_gini_in_range_and_positive_for_skewed_log(self, click_log):
        stats = compute_stats(click_log)
        assert 0.0 < stats.gini_coefficient < 1.0

    def test_gini_zero_for_uniform_log(self):
        uniform = ClickLog.from_tuples([(f"q{i}", "u", 5) for i in range(4)])
        assert compute_stats(uniform).gini_coefficient == pytest.approx(0.0, abs=1e-9)

    def test_empty_log(self):
        stats = compute_stats(ClickLog())
        assert stats.distinct_queries == 0
        assert stats.total_clicks == 0
        assert stats.gini_coefficient == 0.0

    def test_as_dict_keys(self, click_log):
        payload = compute_stats(click_log).as_dict()
        assert "gini_coefficient" in payload and "total_clicks" in payload


class TestRankFrequency:
    def test_descending_order(self, click_log):
        ranked = rank_frequency(click_log)
        volumes = [volume for _query, volume in ranked]
        assert volumes == sorted(volumes, reverse=True)
        assert ranked[0][0] == "popular query"

    def test_top_truncation(self, click_log):
        assert len(rank_frequency(click_log, top=2)) == 2


class TestHeadShare:
    def test_head_dominates_skewed_log(self, click_log):
        assert head_share(click_log, head_fraction=0.25) > 0.7

    def test_full_head_is_everything(self, click_log):
        assert head_share(click_log, head_fraction=1.0) == pytest.approx(1.0)

    def test_invalid_fraction(self, click_log):
        with pytest.raises(ValueError):
            head_share(click_log, head_fraction=0.0)

    def test_empty_log(self):
        assert head_share(ClickLog()) == 0.0

    def test_simulated_log_is_heavy_tailed(self, toy_world):
        # The property the paper's coverage argument relies on.
        assert head_share(toy_world.click_log, head_fraction=0.1) > 0.4
