"""Tests for the search engine facade."""

import pytest

from repro.search.engine import SearchResult


class TestSearch:
    def test_canonical_query_ranks_entity_pages_first(self, mini_engine):
        results = mini_engine.search("indiana jones and the kingdom of the crystal skull")
        assert results[0].url in {
            "https://studio.example.com/indy-4",
            "https://wiki.example.org/indy-4",
        }
        assert results[0].rank == 1

    def test_ranks_are_sequential(self, mini_engine):
        results = mini_engine.search("indiana jones", k=5)
        assert [result.rank for result in results] == list(range(1, len(results) + 1))

    def test_k_limits_results(self, mini_engine):
        assert len(mini_engine.search("the", k=2)) <= 2

    def test_invalid_k(self, mini_engine):
        with pytest.raises(ValueError):
            mini_engine.search("indy", k=0)

    def test_empty_query_returns_nothing(self, mini_engine):
        assert mini_engine.search("") == []
        assert mini_engine.search("   !!!") == []

    def test_out_of_vocabulary_query_returns_nothing(self, mini_engine):
        assert mini_engine.search("zzzz qqqq") == []

    def test_deterministic_tie_break(self, mini_engine):
        first = mini_engine.search("indiana jones")
        second = mini_engine.search("indiana jones")
        assert first == second

    def test_top_urls(self, mini_engine):
        results = mini_engine.search("madagascar", k=3)
        assert results[0].url == "https://studio.example.com/madagascar-2"

    def test_scores_non_increasing(self, mini_engine):
        results = mini_engine.search("indiana jones crystal skull", k=10)
        scores = [result.score for result in results]
        assert scores == sorted(scores, reverse=True)


class TestHelpers:
    def test_search_result_is_frozen(self):
        result = SearchResult(url="u", rank=1, score=1.0)
        with pytest.raises(AttributeError):
            result.rank = 2
