"""Tests for MinerConfig."""

import dataclasses

import pytest

from repro.core.config import MinerConfig


class TestValidation:
    def test_defaults_are_paper_operating_point(self):
        config = MinerConfig()
        assert config.ipc_threshold == 4
        assert config.icr_threshold == pytest.approx(0.1)
        assert config.surrogate_k == 10

    def test_invalid_surrogate_k(self):
        with pytest.raises(ValueError):
            MinerConfig(surrogate_k=0)

    def test_invalid_ipc(self):
        with pytest.raises(ValueError):
            MinerConfig(ipc_threshold=-1)

    def test_invalid_icr(self):
        with pytest.raises(ValueError):
            MinerConfig(icr_threshold=1.5)

    def test_invalid_min_clicks(self):
        # Neither removed knob is a setting any more: every Click Data tuple
        # has a click, and the canonical is never its own synonym.
        with pytest.raises(TypeError):
            MinerConfig(min_clicks=2)
        with pytest.raises(TypeError):
            MinerConfig(exclude_canonical=False)

    def test_settable_values_are_the_papers_three(self):
        names = [field.name for field in dataclasses.fields(MinerConfig)]
        assert names == ["surrogate_k", "ipc_threshold", "icr_threshold"]


class TestWithThresholds:
    def test_changes_only_requested_fields(self):
        config = MinerConfig(surrogate_k=7)
        updated = config.with_thresholds(ipc=8)
        assert updated.ipc_threshold == 8
        assert updated.icr_threshold == config.icr_threshold
        assert updated.surrogate_k == 7

    def test_original_unchanged(self):
        config = MinerConfig()
        config.with_thresholds(ipc=9, icr=0.5)
        assert config.ipc_threshold == 4

    def test_both_thresholds(self):
        updated = MinerConfig().with_thresholds(ipc=2, icr=0.7)
        assert (updated.ipc_threshold, updated.icr_threshold) == (2, 0.7)
