"""Tests for the temporal (monthly) log simulation."""

import pytest

from repro.simulation.temporal import PAPER_MONTHS, MonthlyLogSimulator, cumulative_click_logs


class TestMonthlyLogSimulator:
    @pytest.fixture(scope="class")
    def simulator(self, toy_world):
        return MonthlyLogSimulator(toy_world, months=PAPER_MONTHS[:3])

    @pytest.fixture(scope="class")
    def slices(self, simulator):
        return simulator.simulate_all()

    def test_one_slice_per_month(self, slices):
        assert [monthly.month for monthly in slices] == list(PAPER_MONTHS[:3])

    def test_each_month_has_traffic(self, slices):
        for monthly in slices:
            assert monthly.click_volume > 0
            assert monthly.sessions > 0

    def test_months_differ(self, slices):
        volumes = {monthly.click_volume for monthly in slices}
        assert len(volumes) > 1, "independent months should not be identical"

    def test_deterministic(self, toy_world):
        first = MonthlyLogSimulator(toy_world, months=PAPER_MONTHS[:2])
        second = MonthlyLogSimulator(toy_world, months=PAPER_MONTHS[:2])
        assert [m.click_volume for m in first.simulate_all()] == [
            m.click_volume for m in second.simulate_all()
        ]

    def test_month_index_out_of_range(self, simulator):
        with pytest.raises(IndexError):
            simulator.simulate_month(99)

    def test_invalid_configuration(self, toy_world):
        with pytest.raises(ValueError):
            MonthlyLogSimulator(toy_world, months=())


class TestCumulativeLogs:
    def test_prefixes_grow_monotonically(self, toy_world):
        simulator = MonthlyLogSimulator(toy_world, months=PAPER_MONTHS[:3])
        prefixes = cumulative_click_logs(simulator.simulate_all())
        volumes = [log.total_click_volume() for _label, log in prefixes]
        assert volumes == sorted(volumes)
        assert len(prefixes) == 3

    def test_last_prefix_equals_total(self, toy_world):
        simulator = MonthlyLogSimulator(toy_world, months=PAPER_MONTHS[:2])
        slices = simulator.simulate_all()
        prefixes = cumulative_click_logs(slices)
        total = sum(monthly.click_volume for monthly in slices)
        assert prefixes[-1][1].total_click_volume() == total

    def test_labels_mention_months(self, toy_world):
        simulator = MonthlyLogSimulator(toy_world, months=("2008-07",))
        prefixes = cumulative_click_logs(simulator.simulate_all())
        assert prefixes[0][0] == "through 2008-07"
