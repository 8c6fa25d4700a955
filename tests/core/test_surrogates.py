"""Tests for SurrogateFinder (G_A)."""

import pytest

from repro.clicklog.log import SearchLog
from repro.core.surrogates import SurrogateFinder

CANONICAL = "indiana jones and the kingdom of the crystal skull"


class TestConstruction:
    def test_invalid_k(self, mini_search_log):
        with pytest.raises(ValueError):
            SurrogateFinder(search_log=mini_search_log, k=0)


class TestFromSearchLog:
    def test_surrogates_in_rank_order(self, mini_search_log):
        finder = SurrogateFinder(search_log=mini_search_log, k=10)
        assert finder.surrogates(CANONICAL)[0] == "https://studio.example.com/indy-4"

    def test_k_cutoff(self, mini_search_log):
        finder = SurrogateFinder(search_log=mini_search_log, k=2)
        assert len(finder.surrogates(CANONICAL)) == 2

    def test_normalizes_the_input_value(self, mini_search_log):
        finder = SurrogateFinder(search_log=mini_search_log, k=10)
        raw = "Indiana Jones: and the Kingdom of the Crystal Skull"
        assert finder.surrogates(raw) == finder.surrogates(CANONICAL)

    def test_unknown_value_without_engine(self, mini_search_log):
        finder = SurrogateFinder(search_log=mini_search_log, k=10)
        assert finder.surrogates("unknown entity") == ()

    def test_surrogate_set(self):
        # G_A(u, P) is a set: a page repeated in Search Data is one surrogate,
        # at its best rank.
        log = SearchLog.from_tuples(
            [(CANONICAL, "https://a.example", 3), (CANONICAL, "https://b.example", 2),
             (CANONICAL, "https://a.example", 1)]
        )
        finder = SurrogateFinder(search_log=log, k=10)
        assert finder.surrogates(CANONICAL) == ("https://a.example", "https://b.example")
