"""Tests for the reference in-memory index, :class:`SynonymDictionary`."""

import pytest

from repro.core.types import EntitySynonyms, MiningResult, SynonymCandidate
from repro.matching.dictionary import SynonymDictionary
from repro.matching.index import DictionaryEntry
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
    result.add(
        EntitySynonyms(
            canonical="madagascar escape 2 africa",
            surrogates=(),
            selected=[SynonymCandidate(query="madagascar 2", ipc=6, icr=0.95, clicks=200)],
        )
    )
    return result


class TestAdd:
    def test_entries_normalized(self):
        dictionary = SynonymDictionary([DictionaryEntry("Indy 4!", "m1")])
        assert "indy 4" in dictionary
        assert dictionary.entities_for("INDY 4") == {"m1"}

    def test_duplicates_collapsed(self):
        dictionary = SynonymDictionary(
            [DictionaryEntry("indy 4", "m1"), DictionaryEntry("Indy 4", "m1")]
        )
        assert len(dictionary) == 1

    def test_duplicate_keeps_max_weight(self):
        # Canonical (weight 1.0) first, then the mined entry carrying real
        # click evidence: the dictionary must keep the heavier entry, not
        # silently drop it because the string was already present.
        dictionary = SynonymDictionary(
            [
                DictionaryEntry("indy 4", "m1", source="canonical", weight=1.0),
                DictionaryEntry("indy 4", "m1", source="mined", weight=120.0),
            ]
        )
        assert len(dictionary) == 1
        (entry,) = dictionary.lookup("indy 4")
        assert entry.weight == 120.0
        assert entry.source == "mined"

    def test_duplicate_with_lower_weight_ignored(self):
        dictionary = SynonymDictionary(
            [
                DictionaryEntry("indy 4", "m1", source="mined", weight=120.0),
                DictionaryEntry("indy 4", "m1", source="manual", weight=2.0),
            ]
        )
        (entry,) = dictionary.lookup("indy 4")
        assert entry.weight == 120.0
        assert entry.source == "mined"

    def test_duplicate_never_skews_token_shortlist(self):
        dictionary = SynonymDictionary(
            [
                DictionaryEntry("indy 4", "m1", weight=1.0),
                DictionaryEntry("indy 4", "m1", weight=50.0),
                DictionaryEntry("indy 4", "m2", weight=3.0),
            ]
        )
        # One string, two entities — iteration and the exact bucket hold
        # exactly one entry per (text, entity) pair.
        assert len(dictionary) == 2
        assert len(dictionary.lookup("indy 4")) == 2
        assert dictionary.strings_containing_token("indy") == {"indy 4"}

    def test_same_string_two_entities_kept(self):
        dictionary = SynonymDictionary(
            [DictionaryEntry("shared", "m1"), DictionaryEntry("shared", "m2")]
        )
        assert dictionary.entities_for("shared") == {"m1", "m2"}

    def test_empty_string_ignored(self):
        dictionary = SynonymDictionary([DictionaryEntry("  !!", "m1")])
        assert len(dictionary) == 0


class TestBuildFromMiningResult:
    def test_canonical_and_synonyms_included(self, mining_result, catalog):
        dictionary = SynonymDictionary.from_mining_result(mining_result, catalog)
        assert dictionary.entities_for("indy 4") == {"m1"}
        assert dictionary.entities_for(
            "indiana jones and the kingdom of the crystal skull"
        ) == {"m1"}
        assert dictionary.entities_for("madagascar 2") == {"m2"}

    def test_unknown_canonical_skipped(self, catalog):
        result = MiningResult()
        result.add(EntitySynonyms(canonical="not in catalog", surrogates=(), selected=[]))
        dictionary = SynonymDictionary.from_mining_result(result, catalog)
        assert len(dictionary) == 0


class TestLookups:
    def test_strings_for_entity(self, mining_result, catalog):
        dictionary = SynonymDictionary.from_mining_result(mining_result, catalog)
        strings = dictionary.strings_for_entity("m1")
        assert "indy 4" in strings and "indiana jones 4" in strings

    def test_token_index(self, mining_result, catalog):
        dictionary = SynonymDictionary.from_mining_result(mining_result, catalog)
        assert "indy 4" in dictionary.strings_containing_token("indy")
        assert dictionary.strings_containing_token("nonexistent") == set()

    def test_max_entry_tokens(self, mining_result, catalog):
        dictionary = SynonymDictionary.from_mining_result(mining_result, catalog)
        assert dictionary.max_entry_tokens >= 8

    def test_max_entry_tokens_empty(self):
        assert SynonymDictionary().max_entry_tokens == 0
