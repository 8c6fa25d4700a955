"""Tests for the entry builders: how mined synonyms become dictionary entries."""

import pytest

from repro.core.types import EntitySynonyms, MiningResult, SynonymCandidate
from repro.matching.index import (
    DictionaryEntry,
    entries_from_mined_rows,
    entries_from_mining_result,
    mined_row,
)
from repro.simulation.catalog import Entity, EntityCatalog


@pytest.fixture()
def catalog():
    return EntityCatalog(
        "movie",
        [
            Entity("m1", "Indiana Jones and the Kingdom of the Crystal Skull", "movie"),
            Entity("m2", "Madagascar Escape 2 Africa", "movie"),
        ],
    )


@pytest.fixture()
def mining_result():
    result = MiningResult()
    result.add(
        EntitySynonyms(
            canonical="indiana jones and the kingdom of the crystal skull",
            surrogates=(),
            selected=[
                SynonymCandidate(query="indy 4", ipc=5, icr=0.9, clicks=120),
                SynonymCandidate(query="indiana jones 4", ipc=4, icr=0.8, clicks=80),
            ],
        )
    )
    result.add(EntitySynonyms(canonical="not in catalog", surrogates=(), selected=[]))
    result.add(
        EntitySynonyms(
            canonical="madagascar escape 2 africa",
            surrogates=(),
            selected=[SynonymCandidate(query="madagascar 2", ipc=6, icr=0.95, clicks=200)],
        )
    )
    return result


class TestEntriesFromMiningResult:
    def test_each_canonical_then_its_synonyms_weighted_by_clicks(self, mining_result, catalog):
        assert list(entries_from_mining_result(mining_result, catalog)) == [
            DictionaryEntry(
                "indiana jones and the kingdom of the crystal skull", "m1", "canonical", 1.0
            ),
            DictionaryEntry("indy 4", "m1", "mined", 120.0),
            DictionaryEntry("indiana jones 4", "m1", "mined", 80.0),
            DictionaryEntry("madagascar escape 2 africa", "m2", "canonical", 1.0),
            DictionaryEntry("madagascar 2", "m2", "mined", 200.0),
        ]

    def test_canonical_entries_cover_the_catalog(self, catalog):
        # The canonical-names-only baseline is the builder's entries
        # filtered by source: one per catalogued entity mined.
        result = MiningResult()
        for entity in catalog:
            result.add(EntitySynonyms(canonical=entity.normalized_name, surrogates=()))
        canonical = [
            entry
            for entry in entries_from_mining_result(result, catalog)
            if entry.source == "canonical"
        ]
        assert [(entry.text, entry.entity_id) for entry in canonical] == [
            (entity.normalized_name, entity.entity_id) for entity in catalog
        ]


class TestMinedRows:
    def test_row_scores_ignored_and_clicks_default_to_one(self):
        assert mined_row(canonical="a", synonym="b", ipc=5, icr=0.5, clicks=7) == ("a", "b", 7.0)
        assert mined_row(canonical="a", synonym="b") == ("a", "b", 1.0)

    @pytest.mark.parametrize("row", [{"canonical": "a"}, {"synonym": "b"}])
    def test_row_without_canonical_or_synonym_rejected(self, row):
        with pytest.raises(TypeError):
            mined_row(**row)

    def test_canonical_string_is_the_entity_id(self):
        rows = [("alpha movie", "alpha", 40.0), ("beta camera", "alpha", 9.0)]
        assert list(entries_from_mined_rows(rows)) == [
            DictionaryEntry("alpha movie", "alpha movie", "canonical", 1.0),
            DictionaryEntry("alpha", "alpha movie", "mined", 40.0),
            DictionaryEntry("beta camera", "beta camera", "canonical", 1.0),
            DictionaryEntry("alpha", "beta camera", "mined", 9.0),
        ]
