"""Tests for the end-to-end SynonymMiner on handcrafted logs."""

import pytest

from repro.core.config import MinerConfig
from repro.core.pipeline import SynonymMiner

CANONICAL = "indiana jones and the kingdom of the crystal skull"


@pytest.fixture()
def miner(mini_search_log, mini_click_log):
    return SynonymMiner(
        click_log=mini_click_log,
        search_log=mini_search_log,
        config=MinerConfig(surrogate_k=10, ipc_threshold=2, icr_threshold=0.5),
    )


class TestMineOne:
    def test_true_synonym_selected(self, miner):
        entry = miner.mine_one(CANONICAL)
        assert entry.synonyms == ["indy 4"]

    def test_hypernym_and_related_rejected(self, miner):
        entry = miner.mine_one(CANONICAL)
        rejected = {candidate.query for candidate in entry.candidates} - set(entry.synonyms)
        assert "indiana jones" in rejected
        assert "harrison ford" in rejected

    def test_candidates_are_scored_superset_of_selected(self, miner):
        entry = miner.mine_one(CANONICAL)
        assert set(entry.synonyms) <= {candidate.query for candidate in entry.candidates}

    def test_surrogates_recorded(self, miner):
        entry = miner.mine_one(CANONICAL)
        assert entry.surrogates[0] == "https://studio.example.com/indy-4"

    def test_raw_canonical_form_accepted(self, miner):
        raw = "Indiana Jones: and the Kingdom of the Crystal Skull"
        assert miner.mine_one(raw).canonical == CANONICAL

    def test_unknown_value_yields_empty_entry(self, miner):
        entry = miner.mine_one("completely unknown title")
        assert entry.surrogates == ()
        assert len(entry.candidates) == 0 and entry.selected == []

    def test_canonical_never_its_own_synonym(self, miner):
        entry = miner.mine_one(CANONICAL)
        assert CANONICAL not in entry.synonyms


class TestMineMany:
    def test_mine_returns_entry_per_value(self, miner):
        result = miner.mine([CANONICAL, "unknown title"])
        assert len(result) == 2
        assert result.hit_count == 1


class TestReselect:
    def test_tighter_thresholds_shrink_selection(self, miner):
        result = miner.mine([CANONICAL])
        loose = miner.reselect(result, MinerConfig(ipc_threshold=1, icr_threshold=0.0))
        tight = miner.reselect(result, MinerConfig(ipc_threshold=2, icr_threshold=0.9))
        assert tight.synonym_count <= loose.synonym_count
        assert loose.synonym_count == len(result[CANONICAL].candidates)

    def test_reselect_does_not_mutate_input(self, miner):
        result = miner.mine([CANONICAL])
        before = list(result[CANONICAL].selected)
        miner.reselect(result, MinerConfig(ipc_threshold=0, icr_threshold=0.0))
        assert result[CANONICAL].selected == before

    def test_reselect_matches_fresh_mining(self, mini_search_log, mini_click_log, miner):
        result = miner.mine([CANONICAL])
        config = MinerConfig(ipc_threshold=1, icr_threshold=0.0)
        reselected = miner.reselect(result, config)
        fresh = SynonymMiner(
            click_log=mini_click_log, search_log=mini_search_log, config=config
        ).mine_one(CANONICAL)
        assert reselected[CANONICAL] == fresh

    def test_reselect_refuses_another_surrogate_k(self, miner):
        # The scores were summed over the top-10 surrogates; other thresholds
        # reuse them, another k would need them summed again.
        result = miner.mine([CANONICAL])
        with pytest.raises(ValueError, match="surrogate_k"):
            miner.reselect(result, MinerConfig(surrogate_k=3))
