"""End-to-end integration tests on the shared toy world.

These tests exercise the whole stack — simulation, search engine, click
logs, the miner, the dictionary and the online matcher — and assert the
qualitative outcomes the paper claims, without pinning exact numbers.
"""

import pytest

from repro.core.config import MinerConfig
from repro.core.incremental import IncrementalSynonymMiner
from repro.core.pipeline import SynonymMiner
from repro.eval.labeling import GroundTruthOracle
from repro.eval.metrics import coverage_increase, precision, weighted_precision
from repro.matching.index import entries_from_mining_result
from repro.matching.matcher import QueryMatcher
from repro.serving.artifact import SynonymArtifact
from repro.text.normalize import normalize

from tests.conftest import table_row


@pytest.fixture(scope="module")
def mined(toy_world):
    miner = SynonymMiner(
        click_log=toy_world.click_log,
        search_log=toy_world.search_log,
        config=MinerConfig(),
    )
    return miner, miner.mine(toy_world.canonical_queries())


@pytest.fixture(scope="module")
def oracle(toy_world):
    return GroundTruthOracle(toy_world.catalog, toy_world.alias_table)


class TestMiningQuality:
    def test_most_entities_get_synonyms(self, mined):
        _miner, result = mined
        assert table_row(result).hit_ratio > 0.8

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
        assert table_row(result).expansion_ratio > 2.0


class TestOnlineMatchingIntegration:
    def test_expanded_dictionary_improves_live_query_coverage(self, mined, toy_world):
        _miner, result = mined
        entries = list(entries_from_mining_result(result, toy_world.catalog))
        expanded = SynonymArtifact.from_entries(entries)
        canonical_only = SynonymArtifact.from_entries(
            entry for entry in entries if entry.source == "canonical"
        )

        # Live queries: what the simulated users actually typed (true
        # synonyms plus noise), excluding the canonical strings themselves.
        live_queries = [
            spec.query
            for spec in toy_world.population
            if spec.kind in ("synonym", "aspect", "noise")
        ]
        coverage = {}
        for name, index in (("expanded", expanded), ("canonical only", canonical_only)):
            matcher = QueryMatcher(index, enable_fuzzy=False)
            matched = sum(matcher.match(query).matched for query in live_queries)
            coverage[name] = matched / len(live_queries)
        assert coverage["expanded"] > coverage["canonical only"]

    def test_matched_entities_are_the_right_ones(self, mined, toy_world, oracle):
        _miner, result = mined
        artifact = SynonymArtifact.from_entries(
            entries_from_mining_result(result, toy_world.catalog)
        )
        matcher = QueryMatcher(artifact, enable_fuzzy=False)
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


class TestServedArtifactCrossCheck:
    """The daemon serves exactly what the quality ledger scored.

    The ``Us`` rows of ``benchmarks/results/quality.json`` score a mining
    result; this pins that the artifact a publisher compiles from the same
    point holds those (string, entity) pairs and nothing else.
    """

    def test_published_pairs_are_the_pairs_the_us_row_scores(self, toy_world, tmp_path):
        config = MinerConfig()
        values = toy_world.canonical_queries()
        # The Us row's selection, computed as the quality sweep does it:
        # mine with open thresholds, then re-filter at (β, γ).
        sweep = SynonymMiner(
            click_log=toy_world.click_log,
            search_log=toy_world.search_log,
            config=config.with_thresholds(ipc=0, icr=0.0),
        )
        scored = sweep.reselect(sweep.mine(values), config)
        by_name = toy_world.catalog.by_canonical_name()
        expected = set()
        for entry in scored:
            entity_id = by_name[entry.canonical].entity_id
            expected.add((normalize(entry.canonical), entity_id))
            expected.update((normalize(synonym), entity_id) for synonym in entry.synonyms)

        publisher = IncrementalSynonymMiner(
            search_log=toy_world.search_log, click_log=toy_world.click_log, config=config
        )
        publisher.track(values)
        publisher.refresh()
        path = tmp_path / "toy.synart"
        publisher.publish(toy_world.catalog, path)
        artifact = SynonymArtifact.load(path)

        assert {(text, entity_id) for text, entity_id, *_ in artifact} == expected
        for text, entity_id in sorted(expected):
            assert entity_id in artifact.entities_for(text), text
