"""Tests for IPC, ICR and threshold selection (paper Eq. 3 and Eq. 4)."""

import pytest

from repro.core.config import MinerConfig
from repro.core.pipeline import mine_entity
from repro.core.selection import intersecting_click_ratio, intersecting_page_count, select

CANONICAL = "indiana jones and the kingdom of the crystal skull"
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


def mined(click_log):
    """The Indy-4 entity mined over *click_log* at the default thresholds."""
    return mine_entity(
        CANONICAL, source=click_log, surrogates=sorted(SURROGATES), config=MinerConfig()
    )


def score(click_log, query):
    """*query*'s scores as the miner computes them for the Indy-4 entity;
    None when the miner does not score it."""
    return next((c for c in mined(click_log).candidates if c.query == query), None)


class TestScoreProfile:
    def test_scores_match_paper_definitions(self, mini_click_log):
        candidate = score(mini_click_log, "indy 4")
        # Both clicked URLs are surrogates: IPC 2, ICR 1.0, 90 clicks.
        assert candidate.ipc == 2
        assert candidate.icr == 1.0
        assert candidate.clicks == 90

    def test_hypernym_profile(self, mini_click_log):
        candidate = score(mini_click_log, "indiana jones")
        # 20 of 90 clicks land on a surrogate: low ICR, IPC 1.
        assert candidate.ipc == 1
        assert candidate.icr == 20 / 90

    def test_related_profile(self, mini_click_log):
        candidate = score(mini_click_log, "harrison ford")
        assert candidate.ipc == 1
        assert candidate.icr == 5 / 95

    def test_mined_candidates_ordered_by_clicks(self, mini_click_log):
        entry = mined(mini_click_log)
        assert {"indy 4", "harrison ford", "indiana jones"} <= {
            candidate.query for candidate in entry.candidates
        }
        assert [candidate.clicks for candidate in entry.candidates] == sorted(
            (candidate.clicks for candidate in entry.candidates), reverse=True
        )

    def test_score_unknown_query(self, mini_click_log):
        # A query the log has never seen clicks no surrogate, so it is never
        # scored: no candidate of any entity has IPC 0.
        assert score(mini_click_log, "never asked") is None
        assert all(candidate.ipc >= 1 for candidate in mined(mini_click_log).candidates)


class TestSelector:
    # Four scored rows as columns: a synonym, a hypernym, an aspect query and
    # a related query.
    COLUMNS = (
        ("synonym", "hypernym", "aspect", "related"),
        (5, 5, 1, 1),
        (0.9, 0.05, 0.95, 0.02),
        (100, 300, 50, 10),
    )

    def _select(self, ipc, icr):
        config = MinerConfig(ipc_threshold=ipc, icr_threshold=icr)
        return [candidate.query for candidate in select(config, *self.COLUMNS)]

    def test_both_thresholds_applied(self):
        assert self._select(4, 0.1) == ["synonym"]

    def test_ipc_only(self):
        assert self._select(4, 0.0) == ["synonym", "hypernym"]

    def test_icr_only(self):
        assert self._select(0, 0.5) == ["synonym", "aspect"]

    def test_zero_thresholds_keep_everything(self):
        assert len(self._select(0, 0.0)) == 4

    def test_order_preserved(self):
        assert self._select(0, 0.0) == ["synonym", "hypernym", "aspect", "related"]

    def test_thresholds_are_inclusive(self):
        assert self._select(5, 0.9) == ["synonym"]
