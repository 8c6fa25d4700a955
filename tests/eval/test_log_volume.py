"""Tests for the log-volume axis of the quality grid."""

import pytest

from repro.eval.experiments import PREFIX_WORLDS, prefix_worlds, run_quality
from repro.eval.reporting import row_at


@pytest.fixture(scope="module")
def worlds(toy_world):
    return prefix_worlds(toy_world)


@pytest.fixture(scope="module")
def sweep(worlds):
    rows = run_quality(worlds)
    return [row_at(rows, world) for world in PREFIX_WORLDS]


class TestLogVolumeSweep:
    def test_one_point_per_prefix(self, sweep):
        assert [point.world for point in sweep] == [
            "movies through 2008-07", "movies through 2008-08", "movies through 2008-09",
            "movies through 2008-10", "movies through 2008-11",
        ]

    def test_prefixes_replace_only_the_click_log(self, worlds, toy_world):
        for world in worlds.values():
            assert world.search_log is toy_world.search_log
            assert world.catalog is toy_world.catalog
            assert world.click_log is not toy_world.click_log

    def test_click_volume_grows(self, sweep):
        volumes = [point.click_volume for point in sweep]
        assert volumes == sorted(volumes)
        assert volumes[0] > 0

    def test_coverage_and_synonyms_never_shrink_much(self, sweep):
        # More log data can only add candidates; small fluctuations come
        # from ICR denominators, so allow a modest tolerance.
        assert sweep[-1].synonyms >= sweep[0].synonyms * 0.8
        assert sweep[-1].hit_ratio >= sweep[0].hit_ratio - 0.1

    def test_metrics_in_range(self, sweep):
        for point in sweep:
            assert 0.0 <= point.hit_ratio <= 1.0
            assert 0.0 <= point.precision <= 1.0
            assert point.coverage_increase >= 0.0

    def test_more_months_help_or_saturate(self, sweep):
        one_month, three_months = sweep[0], sweep[2]
        assert three_months.click_volume > one_month.click_volume
        assert three_months.synonyms >= one_month.synonyms * 0.8
