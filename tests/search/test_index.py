"""Tests for the inverted index."""

import pytest

from repro.search.documents import WebPage
from repro.search.index import InvertedIndex


@pytest.fixture()
def index(mini_corpus):
    return InvertedIndex.from_corpus(mini_corpus)


class TestConstruction:
    def test_document_count(self, index, mini_corpus):
        assert index.document_count == len(mini_corpus)

    def test_vocabulary_nonempty(self, index):
        assert sum(1 for _term in index.terms()) > 10

    def test_duplicate_url_rejected(self, index):
        with pytest.raises(ValueError, match="already indexed"):
            index.add_page(WebPage(url="https://studio.example.com/indy-4", title="x", body="y"))


class TestPostings:
    def test_postings_for_known_term(self, index):
        postings = index.postings("indiana")
        assert len(postings) == 2
        assert all(posting.term_frequency >= 1 for posting in postings)

    def test_postings_for_unknown_term(self, index):
        assert index.postings("zzzzz") == []

    def test_document_frequency(self, index):
        assert index.document_frequency("indiana") == 2
        assert index.document_frequency("madagascar") == 1
        assert index.document_frequency("nonexistent") == 0

    def test_title_boost_increases_term_frequency(self, index):
        # "indiana" appears in the title (boost 3) and once in the body of
        # the studio page, so its term frequency there is at least 4.
        doc_id = index.doc_id_of("https://studio.example.com/indy-4")
        posting = next(p for p in index.postings("indiana") if p.doc_id == doc_id)
        assert posting.term_frequency >= 4


class TestTranslationAndStats:
    def test_url_doc_id_roundtrip(self, index, mini_corpus):
        for url in mini_corpus.urls:
            assert index.url_of(index.doc_id_of(url)) == url

    def test_doc_id_of_missing_url(self, index):
        with pytest.raises(KeyError):
            index.doc_id_of("https://missing.example.com")

    def test_document_length_positive(self, index):
        for doc_id in range(index.document_count):
            assert index.document_length(doc_id) > 0

    def test_average_document_length(self, index):
        lengths = [index.document_length(d) for d in range(index.document_count)]
        assert index.average_document_length == pytest.approx(sum(lengths) / len(lengths))

    def test_average_length_empty_index(self):
        assert InvertedIndex().average_document_length == 0.0
