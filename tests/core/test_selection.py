"""Tests for IPC, ICR and threshold selection (paper Eq. 3 and Eq. 4)."""

import pytest

from repro.core.config import MinerConfig
from repro.core.pipeline import mine_entity
from repro.core.selection import (
    CandidateSelector,
    intersecting_click_ratio,
    intersecting_page_count,
    score_profile,
)
from repro.core.types import SynonymCandidate

SURROGATES = {
    "https://studio.example.com/indy-4",
    "https://wiki.example.org/indy-4",
    "https://magazine.example.com/box-office",
}


class TestMeasures:
    def test_ipc_counts_intersection(self):
        clicked = {"https://studio.example.com/indy-4", "https://other.example.com"}
        assert intersecting_page_count(clicked, SURROGATES) == 1

    def test_ipc_disjoint_sets(self):
        assert intersecting_page_count({"https://x.example"}, SURROGATES) == 0

    def test_icr_fraction_of_clicks(self):
        clicks = {
            "https://studio.example.com/indy-4": 60,
            "https://other.example.com": 40,
        }
        assert intersecting_click_ratio(clicks, SURROGATES) == pytest.approx(0.6)

    def test_icr_all_inside(self):
        clicks = {"https://wiki.example.org/indy-4": 10}
        assert intersecting_click_ratio(clicks, SURROGATES) == 1.0

    def test_icr_no_clicks(self):
        assert intersecting_click_ratio({}, SURROGATES) == 0.0


class TestScoreProfile:
    def test_scores_match_paper_definitions(self, mini_click_log):
        candidate = score_profile(mini_click_log.candidate_profile("indy 4"), SURROGATES)
        # Both clicked URLs are surrogates: IPC 2, ICR 1.0, 90 clicks.
        assert candidate.ipc == 2
        assert candidate.icr == pytest.approx(1.0)
        assert candidate.clicks == 90
        assert set(candidate.intersecting_urls) == {
            "https://studio.example.com/indy-4",
            "https://wiki.example.org/indy-4",
        }

    def test_hypernym_profile(self, mini_click_log):
        candidate = score_profile(
            mini_click_log.candidate_profile("indiana jones"), SURROGATES
        )
        # 20 of 90 clicks land on a surrogate: low ICR, IPC 1.
        assert candidate.ipc == 1
        assert candidate.icr == pytest.approx(20 / 90)

    def test_related_profile(self, mini_click_log):
        candidate = score_profile(
            mini_click_log.candidate_profile("harrison ford"), SURROGATES
        )
        assert candidate.ipc == 1
        assert candidate.icr == pytest.approx(5 / 95)

    def test_mined_candidates_ordered_by_clicks(self, mini_click_log):
        entry = mine_entity(
            "indiana jones and the kingdom of the crystal skull",
            source=mini_click_log,
            surrogates=sorted(SURROGATES),
            config=MinerConfig(),
        )
        assert {"indy 4", "harrison ford", "indiana jones"} <= {
            candidate.query for candidate in entry.candidates
        }
        assert [candidate.clicks for candidate in entry.candidates] == sorted(
            (candidate.clicks for candidate in entry.candidates), reverse=True
        )

    def test_score_unknown_query(self, mini_click_log):
        candidate = score_profile(mini_click_log.candidate_profile("never asked"), SURROGATES)
        assert candidate.ipc == 0 and candidate.icr == 0.0 and candidate.clicks == 0


class TestSelector:
    def _scored(self):
        return [
            SynonymCandidate(query="synonym", ipc=5, icr=0.9, clicks=100),
            SynonymCandidate(query="hypernym", ipc=5, icr=0.05, clicks=300),
            SynonymCandidate(query="aspect", ipc=1, icr=0.95, clicks=50),
            SynonymCandidate(query="related", ipc=1, icr=0.02, clicks=10),
        ]

    def test_both_thresholds_applied(self):
        selector = CandidateSelector(ipc_threshold=4, icr_threshold=0.1)
        selected = selector.select(self._scored())
        assert [candidate.query for candidate in selected] == ["synonym"]

    def test_ipc_only(self):
        selector = CandidateSelector(ipc_threshold=4, icr_threshold=0.0)
        assert {c.query for c in selector.select(self._scored())} == {"synonym", "hypernym"}

    def test_icr_only(self):
        selector = CandidateSelector(ipc_threshold=0, icr_threshold=0.5)
        assert {c.query for c in selector.select(self._scored())} == {"synonym", "aspect"}

    def test_zero_thresholds_keep_everything(self):
        selector = CandidateSelector(ipc_threshold=0, icr_threshold=0.0)
        assert len(selector.select(self._scored())) == 4

    def test_order_preserved(self):
        selector = CandidateSelector(ipc_threshold=0, icr_threshold=0.0)
        queries = [c.query for c in selector.select(self._scored())]
        assert queries == ["synonym", "hypernym", "aspect", "related"]

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            CandidateSelector(ipc_threshold=-1)
        with pytest.raises(ValueError):
            CandidateSelector(icr_threshold=2.0)
