"""Unit tests for the Scenario spec and the named-scenario library."""

import math

import pytest

from repro.scenarios import NAMED_SCENARIOS, Scenario, get_scenario, scenario_names

FLOAT_FIELDS = (
    "multilingual_share", "zipf_exponent", "noise_rate", "context_rate", "miss_rate",
    "resolve_ratio", "batch_ratio", "dirty_fraction", "delta_every_s", "qps",
    "burst_factor", "burst_every_s", "burst_duration_s", "duration_s",
)


class TestScenarioValidation:
    def test_defaults_are_valid(self):
        scenario = Scenario(name="s")
        assert scenario.entities >= 1
        assert scenario.repeats == 1

    @pytest.mark.parametrize(
        "overrides",
        [
            {"name": ""},
            {"entities": 0},
            {"synonyms_per_entity": 0},
            {"noise_rate": 1.5},
            {"noise_rate": -0.1},
            {"miss_rate": 2.0},
            {"resolve_ratio": -1.0},
            {"batch_ratio": 1.01},
            {"batch_size": 0},
            {"zipf_exponent": -0.5},
            {"dirty_fraction": 1.2},
            {"delta_every_s": -1.0},
            # churn cadence without anything to churn is a spec bug
            {"delta_every_s": 1.0, "dirty_fraction": 0.0},
            {"qps": -5.0},
            {"burst_factor": 0.5},
            {"burst_every_s": -1.0},
            {"burst_duration_s": -1.0},
            {"duration_s": 0.0},
            {"repeats": 0},
            # a noisy query cannot also be a context query
            {"noise_rate": 0.7, "context_rate": 0.5},
            # NaN passes every comparison; inf never ends a drive
            *({name: value} for name in FLOAT_FIELDS for value in (math.nan, math.inf)),
        ],
    )
    def test_invalid_fields_rejected(self, overrides):
        params = {"name": "s", **overrides}
        with pytest.raises(ValueError):
            Scenario(**params)

    def test_frozen(self):
        scenario = Scenario(name="s")
        with pytest.raises(AttributeError):
            scenario.seed = 7


class TestScenarioRoundTrip:
    def test_to_dict_from_dict_round_trips(self):
        original = Scenario(
            name="rt", seed=9, dirty_fraction=0.2, delta_every_s=0.5,
            qps=100.0, burst_factor=3.0, burst_every_s=2.0, burst_duration_s=0.5,
        )
        assert Scenario.from_dict(original.to_dict()) == original

    def test_from_dict_rejects_unknown_fields(self):
        payload = Scenario(name="rt").to_dict()
        payload["typo_field"] = 1
        with pytest.raises(ValueError, match="typo_field"):
            Scenario.from_dict(payload)

    def test_with_overrides_revalidates_and_skips_none(self):
        scenario = Scenario(name="s", seed=1)
        assert scenario.with_overrides(seed=None) is scenario
        assert scenario.with_overrides(seed=7).seed == 7
        with pytest.raises(ValueError):
            scenario.with_overrides(duration_s=-1.0)


class TestLibrary:
    REQUIRED = {
        "flash-crowd",
        "cold-cache",
        "delta-storm",
        "adversarial-misspellings",
        "multilingual-aliases",
    }

    def test_required_scenarios_present(self):
        assert self.REQUIRED <= set(NAMED_SCENARIOS)
        assert len(NAMED_SCENARIOS) >= 5

    def test_names_self_consistent_and_described(self):
        assert set(scenario_names()) == set(NAMED_SCENARIOS)
        for name, scenario in NAMED_SCENARIOS.items():
            assert scenario.name == name
            assert scenario.description

    def test_every_library_entry_round_trips(self):
        for scenario in NAMED_SCENARIOS.values():
            assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_get_scenario_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="flash-crowd"):
            get_scenario("nope")

    def test_library_intent_pins(self):
        """Each named scenario actually stresses what its name promises."""
        assert NAMED_SCENARIOS["flash-crowd"].burst_factor > 1.0
        assert NAMED_SCENARIOS["flash-crowd"].qps > 0
        assert NAMED_SCENARIOS["cold-cache"].cold_start is True
        assert NAMED_SCENARIOS["cold-cache"].repeats > 1
        assert NAMED_SCENARIOS["delta-storm"].delta_every_s > 0
        assert NAMED_SCENARIOS["delta-storm"].dirty_fraction > 0
        assert NAMED_SCENARIOS["adversarial-misspellings"].noise_rate >= 0.5
        assert NAMED_SCENARIOS["multilingual-aliases"].multilingual_share >= 0.5
