"""Tests for BM25 scoring."""

import pytest

from repro.search.bm25 import BM25Scorer
from repro.search.index import InvertedIndex


@pytest.fixture()
def scorer(mini_corpus):
    return BM25Scorer(InvertedIndex.from_corpus(mini_corpus))


class TestScoring:
    def test_idf_positive_and_decreasing_with_df(self, scorer):
        rare = scorer.idf("madagascar")   # document frequency 1
        common = scorer.idf("indiana")    # document frequency 2
        assert rare > common > 0.0

    def test_idf_unseen_term_is_largest(self, scorer):
        assert scorer.idf("unseenterm") >= scorer.idf("madagascar")

    def test_matching_document_scores_highest(self, scorer):
        scores = scorer.score_all(["madagascar", "escape", "africa"])
        index = scorer.index
        best_doc = max(scores, key=scores.get)
        assert index.url_of(best_doc) == "https://studio.example.com/madagascar-2"

    def test_no_match_returns_empty(self, scorer):
        assert scorer.score_all(["zzzz"]) == {}

    def test_empty_query_returns_empty(self, scorer):
        assert scorer.score_all([]) == {}

    def test_repeated_query_terms_accumulate(self, scorer):
        single = scorer.score_all(["indiana"])
        double = scorer.score_all(["indiana", "indiana"])
        for doc_id in single:
            assert double[doc_id] > single[doc_id]
