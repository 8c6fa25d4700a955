"""Tests for the miner's result types."""

import pytest

from repro.core.types import EntitySynonyms, MiningResult, ScoredCandidates, SynonymCandidate

from tests.conftest import table_row


def _candidate(query="indy 4", ipc=5, icr=0.9, clicks=100):
    return SynonymCandidate(query=query, ipc=ipc, icr=icr, clicks=clicks)


class TestSynonymCandidate:
    def test_valid(self):
        candidate = _candidate()
        assert candidate.query == "indy 4"

    def test_invalid_ipc(self):
        with pytest.raises(ValueError):
            SynonymCandidate(query="q", ipc=-1, icr=0.5, clicks=1)

    def test_invalid_icr(self):
        with pytest.raises(ValueError):
            SynonymCandidate(query="q", ipc=1, icr=1.2, clicks=1)

    def test_invalid_clicks(self):
        with pytest.raises(ValueError):
            SynonymCandidate(query="q", ipc=1, icr=0.5, clicks=-1)


class TestEntitySynonyms:
    def test_synonyms_property(self):
        entry = EntitySynonyms(
            canonical="c", surrogates=("u1",), selected=[_candidate("a"), _candidate("b")]
        )
        assert entry.synonyms == ["a", "b"]
        assert entry.has_synonyms

    def test_no_synonyms(self):
        entry = EntitySynonyms(canonical="c", surrogates=())
        assert not entry.has_synonyms
        assert entry.synonyms == []
        # The default is an empty record, like a baseline's.
        assert isinstance(entry.candidates, ScoredCandidates)
        assert len(entry.candidates) == 0


class TestMiningResult:
    def _result(self):
        result = MiningResult()
        result.add(EntitySynonyms(canonical="one", surrogates=(), selected=[_candidate("a"), _candidate("b")]))
        result.add(EntitySynonyms(canonical="two", surrogates=(), selected=[]))
        result.add(EntitySynonyms(canonical="three", surrogates=(), selected=[_candidate("c")]))
        return result

    def test_len_and_iteration(self):
        result = self._result()
        assert len(result) == 3
        assert {entry.canonical for entry in result} == {"one", "two", "three"}

    def test_lookup(self):
        result = self._result()
        assert result["one"].canonical == "one"
        assert "two" in result and "missing" not in result

    def test_hit_count_and_ratio(self):
        result = self._result()
        assert result.hit_count == 2
        assert table_row(result).hit_ratio == pytest.approx(2 / 3)

    def test_synonym_count(self):
        assert self._result().synonym_count == 3

    def test_expansion_ratio(self):
        # (3 synonyms + 3 originals) / 3 originals = 2.0
        assert table_row(self._result()).expansion_ratio == pytest.approx(2.0)

    def test_as_dictionary(self):
        dictionary = self._result().as_dictionary()
        assert dictionary["one"] == ["a", "b"]
        assert dictionary["two"] == []

    def test_add_overwrites_same_canonical(self):
        result = self._result()
        result.add(EntitySynonyms(canonical="one", surrogates=(), selected=[]))
        assert len(result) == 3
        assert result["one"].selected == []
