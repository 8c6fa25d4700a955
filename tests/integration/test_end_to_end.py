"""End-to-end integration tests on the shared toy world.

These tests exercise the whole stack — simulation, search engine, click
logs, the miner, the dictionary and the online matcher — and assert the
qualitative outcomes the paper claims, without pinning exact numbers.
"""

import pytest

from repro.core.config import MinerConfig
from repro.core.pipeline import SynonymMiner
from repro.eval.labeling import GroundTruthOracle
from repro.eval.metrics import coverage_increase, precision, weighted_precision
from repro.matching.dictionary import SynonymDictionary
from repro.matching.matcher import QueryMatcher


@pytest.fixture(scope="module")
def mined(toy_world):
    miner = SynonymMiner(
        click_log=toy_world.click_log,
        search_log=toy_world.search_log,
        config=MinerConfig.paper_default(),
    )
    return miner, miner.mine(toy_world.canonical_queries())


@pytest.fixture(scope="module")
def oracle(toy_world):
    return GroundTruthOracle(toy_world.catalog, toy_world.alias_table)


class TestMiningQuality:
    def test_most_entities_get_synonyms(self, mined):
        _miner, result = mined
        assert result.hit_ratio() > 0.8

    def test_precision_well_above_chance(self, mined, oracle):
        _miner, result = mined
        assert precision(result, oracle) > 0.5

    def test_weighted_precision_higher_than_unweighted(self, mined, oracle, toy_world):
        _miner, result = mined
        unweighted = precision(result, oracle)
        weighted = weighted_precision(result, oracle, toy_world.click_log)
        # Popular aliases are easier, so frequency weighting should help.
        assert weighted >= unweighted - 0.05

    def test_coverage_more_than_doubles(self, mined, toy_world):
        _miner, result = mined
        assert coverage_increase(result, toy_world.click_log) > 1.0

    def test_known_aliases_recovered(self, mined, oracle, toy_world):
        _miner, result = mined
        recovered = 0
        total = 0
        for entity in toy_world.catalog:
            truth = toy_world.alias_table.synonyms_of(entity.entity_id)
            found = set(result[entity.normalized_name].synonyms)
            overlap = truth & found
            total += 1
            if overlap:
                recovered += 1
        assert recovered / total > 0.8

    def test_expansion_ratio_substantial(self, mined):
        _miner, result = mined
        assert result.expansion_ratio() > 2.0


class TestOnlineMatchingIntegration:
    def test_expanded_dictionary_improves_live_query_coverage(self, mined, toy_world):
        _miner, result = mined
        expanded = SynonymDictionary.from_mining_result(result, toy_world.catalog)
        canonical_only = SynonymDictionary.from_catalog(toy_world.catalog)

        # Live queries: what the simulated users actually typed (true
        # synonyms plus noise), excluding the canonical strings themselves.
        live_queries = [
            spec.query
            for spec in toy_world.population
            if spec.kind in ("synonym", "aspect", "noise")
        ]
        expanded_coverage = QueryMatcher(expanded, enable_fuzzy=False).coverage(live_queries)
        baseline_coverage = QueryMatcher(canonical_only, enable_fuzzy=False).coverage(live_queries)
        assert expanded_coverage > baseline_coverage

    def test_matched_entities_are_the_right_ones(self, mined, toy_world, oracle):
        _miner, result = mined
        dictionary = SynonymDictionary.from_mining_result(result, toy_world.catalog)
        matcher = QueryMatcher(dictionary, enable_fuzzy=False)
        correct = 0
        checked = 0
        for entity in toy_world.catalog:
            for alias in toy_world.alias_table.synonyms_of(entity.entity_id):
                match = matcher.match(alias)
                if not match.matched:
                    continue
                checked += 1
                if entity.entity_id in match.entity_ids:
                    correct += 1
        assert checked > 10
        assert correct / checked > 0.9
