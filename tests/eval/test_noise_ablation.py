"""Tests for the click-noise axis of the quality grid."""

import pytest

from repro.eval.experiments import NOISE_WORLDS, noise_worlds, run_quality
from repro.eval.reporting import row_at


@pytest.fixture(scope="module")
def worlds():
    return noise_worlds()


@pytest.fixture(scope="module")
def ablation(worlds):
    rows = run_quality(worlds)
    return [row_at(rows, world) for world in NOISE_WORLDS]


class TestNoiseAblation:
    def test_one_point_per_noise_level(self, ablation):
        assert [point.world for point in ablation] == [
            "toy noise x0.5", "toy noise x1", "toy noise x2", "toy noise x4",
        ]

    def test_metrics_in_valid_ranges(self, ablation):
        for point in ablation:
            assert 0.0 <= point.precision <= 1.0
            assert 0.0 <= point.weighted_precision <= 1.0
            assert point.coverage_increase >= 0.0
            assert point.synonyms >= 0

    def test_miner_still_works_under_heavy_noise(self, ablation):
        noisy = ablation[-1]
        assert noisy.synonyms > 0
        assert noisy.precision > 0.3

    def test_clean_world_not_worse_than_noisy(self, ablation):
        clean, noisy = ablation[0], ablation[-1]
        assert clean.weighted_precision >= noisy.weighted_precision - 0.15

    def test_noise_x1_is_the_toy_world(self, worlds, toy_world):
        unscaled = worlds["toy noise x1"]
        assert list(unscaled.click_log.iter_records()) == list(toy_world.click_log.iter_records())

    def test_each_level_simulates_different_clicks(self, worlds):
        volumes = [worlds[name].click_log.total_click_volume() for name in NOISE_WORLDS]
        assert len(set(volumes)) == len(volumes)
