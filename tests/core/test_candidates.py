"""Tests for candidate generation (Definition 6), which ``mine_entity`` does
in the same walk that scores the candidates."""

import pytest

from repro.clicklog.records import ClickRecord
from repro.core.config import MinerConfig
from repro.core.pipeline import SynonymMiner, mine_entity

CANONICAL = "indiana jones and the kingdom of the crystal skull"
SURROGATES = {
    "https://studio.example.com/indy-4",
    "https://wiki.example.org/indy-4",
    "https://magazine.example.com/box-office",
}


def candidates_for(click_log, surrogates, canonical=CANONICAL, **options):
    entry = mine_entity(
        canonical, source=click_log, surrogates=sorted(surrogates), config=MinerConfig(), **options
    )
    return {candidate.query for candidate in entry.candidates}


class TestCandidateGeneration:
    def test_candidates_require_intersection(self, mini_click_log):
        candidates = candidates_for(mini_click_log, SURROGATES)
        assert "indy 4" in candidates
        assert "indiana jones" in candidates
        assert "harrison ford" in candidates

    def test_queries_without_surrogate_clicks_excluded(self, mini_click_log):
        assert candidates_for(mini_click_log, {"https://unclicked.example.com"}) == set()

    def test_canonical_string_excluded(self, mini_click_log):
        # The canonical clicked a surrogate, so it meets Definition 6, but it
        # is not a synonym of itself.
        assert CANONICAL in mini_click_log.queries_clicking("https://studio.example.com/indy-4")
        assert CANONICAL not in candidates_for(mini_click_log, SURROGATES)

    def test_canonical_excluded_after_normalisation(self, mini_click_log, mini_search_log):
        miner = SynonymMiner(click_log=mini_click_log, search_log=mini_search_log)
        raw = miner.mine_one("Indiana Jones: and the Kingdom of the Crystal Skull")
        assert raw == miner.mine_one(CANONICAL)
        assert CANONICAL not in {candidate.query for candidate in raw.candidates}

    def test_every_query_clicking_a_surrogate_is_a_candidate(self, mini_click_log):
        # Definition 6 has no volume floor: one click on a surrogate is enough.
        mini_click_log.add(ClickRecord("indy four", "https://magazine.example.com/box-office", 1))
        assert candidates_for(mini_click_log, SURROGATES) == {
            "indy 4",
            "indy four",
            "indiana jones",
            "harrison ford",
        }

    def test_invalid_min_clicks(self, mini_click_log):
        # Generation has no settable value: it reads the click log as is.
        with pytest.raises(TypeError):
            candidates_for(mini_click_log, SURROGATES, min_clicks=2)

    def test_empty_surrogates(self, mini_click_log):
        assert candidates_for(mini_click_log, set()) == set()
