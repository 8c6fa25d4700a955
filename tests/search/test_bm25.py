"""Tests for BM25 scoring, observed through :meth:`SearchEngine.search`."""

from repro.search.documents import Corpus, WebPage
from repro.search.engine import SearchEngine


class TestScoring:
    def test_idf_positive_and_decreasing_with_df(self):
        # Every page has the same length and each term occurs once, so a
        # term's score on a page differs from another's only by its idf.
        engine = SearchEngine(
            Corpus(
                [
                    WebPage(url="https://a.example", title="", body="rare common"),
                    WebPage(url="https://b.example", title="", body="common other"),
                    WebPage(url="https://c.example", title="", body="other filler"),
                ]
            )
        )
        rare = {result.url: result.score for result in engine.search("rare")}   # df 1
        common = {result.url: result.score for result in engine.search("common")}  # df 2
        assert rare["https://a.example"] > common["https://a.example"] > 0.0

    def test_matching_document_scores_highest(self, mini_engine):
        results = mini_engine.search("madagascar escape africa")
        assert results[0].url == "https://studio.example.com/madagascar-2"

    def test_no_match_returns_empty(self, mini_engine):
        assert mini_engine.search("zzzz") == ()

    def test_empty_query_returns_empty(self, mini_engine):
        assert mini_engine.search("") == ()

    def test_repeated_query_terms_accumulate(self, mini_engine):
        single = {result.url: result.score for result in mini_engine.search("indiana")}
        double = {result.url: result.score for result in mini_engine.search("indiana indiana")}
        assert single.keys() == double.keys()
        for url, score in single.items():
            assert double[url] > score
