"""Tests for the temporal (monthly) log simulation."""

import pytest

from repro.simulation.temporal import PAPER_MONTHS, cumulative_month_logs


def _records(click_log):
    return {(record.query, record.url): record.clicks for record in click_log.iter_records()}


class TestCumulativeLogs:
    @pytest.fixture(scope="class")
    def prefixes(self, toy_world):
        return cumulative_month_logs(toy_world)

    def test_one_prefix_per_month(self, prefixes):
        assert len(PAPER_MONTHS) == 5
        assert len(prefixes) == 5

    def test_each_month_has_traffic(self, prefixes):
        volumes = [log.total_click_volume() for log in prefixes]
        months = [later - earlier for earlier, later in zip([0, *volumes], volumes)]
        assert all(month > 0 for month in months)

    def test_prefixes_grow_monotonically(self, prefixes):
        volumes = [log.total_click_volume() for log in prefixes]
        assert volumes == sorted(volumes)
        for shorter, longer in zip(prefixes, prefixes[1:]):
            before, after = _records(shorter), _records(longer)
            assert all(after.get(pair, 0) >= clicks for pair, clicks in before.items())

    def test_months_differ(self, prefixes):
        volumes = [log.total_click_volume() for log in prefixes]
        months = [later - earlier for earlier, later in zip([0, *volumes], volumes)]
        for month, next_month in zip(months, months[1:]):
            assert month != next_month, "independent months should not be identical"

    def test_deterministic(self, toy_world, prefixes):
        again = cumulative_month_logs(toy_world)
        assert [_records(log) for log in again] == [_records(log) for log in prefixes]
