"""Tests for CandidateGenerator (Definition 6)."""

import pytest

from repro.clicklog.records import ClickRecord
from repro.core.candidates import CandidateGenerator

CANONICAL = "indiana jones and the kingdom of the crystal skull"
SURROGATES = {
    "https://studio.example.com/indy-4",
    "https://wiki.example.org/indy-4",
    "https://magazine.example.com/box-office",
}


class TestCandidateGeneration:
    def test_candidates_require_intersection(self, mini_click_log):
        generator = CandidateGenerator(mini_click_log)
        candidates = generator.candidates_for(CANONICAL, SURROGATES)
        assert "indy 4" in candidates
        assert "indiana jones" in candidates
        assert "harrison ford" in candidates

    def test_queries_without_surrogate_clicks_excluded(self, mini_click_log):
        generator = CandidateGenerator(mini_click_log)
        candidates = generator.candidates_for(CANONICAL, {"https://unclicked.example.com"})
        assert candidates == set()

    def test_canonical_string_excluded(self, mini_click_log):
        generator = CandidateGenerator(mini_click_log)
        candidates = generator.candidates_for(CANONICAL, SURROGATES)
        assert CANONICAL not in candidates

    def test_canonical_excluded_after_normalisation(self, mini_click_log):
        generator = CandidateGenerator(mini_click_log)
        raw = "Indiana Jones: and the Kingdom of the Crystal Skull"
        assert generator.candidates_for(raw, SURROGATES) == generator.candidates_for(
            CANONICAL, SURROGATES
        )

    def test_every_query_clicking_a_surrogate_is_a_candidate(self, mini_click_log):
        # Definition 6 has no volume floor: one click on a surrogate is enough.
        mini_click_log.add(ClickRecord("indy four", "https://magazine.example.com/box-office", 1))
        generator = CandidateGenerator(mini_click_log)
        assert generator.candidates_for(CANONICAL, SURROGATES) == {
            "indy 4",
            "indy four",
            "indiana jones",
            "harrison ford",
        }

    def test_invalid_min_clicks(self, mini_click_log):
        # The generator has no settable value: it reads the click log as is.
        with pytest.raises(TypeError):
            CandidateGenerator(mini_click_log, min_clicks=2)

    def test_empty_surrogates(self, mini_click_log):
        generator = CandidateGenerator(mini_click_log)
        assert generator.candidates_for(CANONICAL, set()) == set()
