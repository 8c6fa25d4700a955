"""Tests for the ground-truth oracle."""

import pytest

from repro.eval.labeling import GroundTruthOracle
from repro.simulation.aliases import AliasKind


@pytest.fixture(scope="module")
def oracle(toy_world):
    return GroundTruthOracle(toy_world.catalog, toy_world.alias_table)


class TestOracle:
    def test_entity_for_canonical(self, oracle, toy_world):
        entity = next(iter(toy_world.catalog))
        assert oracle.entity_for(entity.canonical_name) == entity.entity_id
        assert oracle.entity_for(entity.normalized_name) == entity.entity_id

    def test_entity_for_unknown(self, oracle):
        assert oracle.entity_for("not a catalog entry") is None

    def test_true_synonym_recognised(self, oracle, toy_world):
        entity = next(iter(toy_world.catalog))
        synonyms = toy_world.alias_table.synonyms_of(entity.entity_id)
        assert synonyms
        alias = next(iter(synonyms))
        assert oracle.is_true_synonym(alias, entity.canonical_name)
        assert oracle.relation(alias, entity.canonical_name) is AliasKind.SYNONYM

    def test_hypernym_not_a_synonym(self, oracle, toy_world):
        for entity in toy_world.catalog:
            franchise = entity.attributes.get("franchise")
            if franchise:
                assert not oracle.is_true_synonym(franchise, entity.canonical_name)
                assert oracle.relation(franchise, entity.canonical_name) is AliasKind.HYPERNYM
                return
        pytest.skip("toy catalog has no franchise entity")

    def test_unrecorded_string(self, oracle, toy_world):
        entity = next(iter(toy_world.catalog))
        assert oracle.relation("weather forecast", entity.canonical_name) is None
        assert not oracle.is_true_synonym("weather forecast", entity.canonical_name)

    def test_unknown_canonical_never_synonym(self, oracle):
        assert not oracle.is_true_synonym("indy 4", "unknown canonical")
