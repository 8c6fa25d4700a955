"""Tests for the document model."""

import pytest

from repro.search.documents import Corpus, WebPage


class TestWebPage:
    def test_indexable_tokens_boost_title(self):
        page = WebPage(url="u", title="Indy Four", body="body text")
        tokens = page.indexable_tokens()
        assert tokens.count("indy") == 3
        assert tokens.count("body") == 1

    def test_indexable_tokens_default_boost(self):
        page = WebPage(url="u", title="one", body="two")
        assert page.indexable_tokens().count("one") == 3

    def test_frozen(self):
        page = WebPage(url="u", title="t", body="b")
        with pytest.raises(AttributeError):
            page.title = "other"


class TestCorpus:
    def test_add_and_lookup(self, mini_corpus):
        assert len(mini_corpus) == 4
        assert "https://studio.example.com/indy-4" in mini_corpus
        assert mini_corpus.get("https://missing.example.com") is None

    def test_getitem_raises_for_missing(self, mini_corpus):
        with pytest.raises(KeyError, match="no page with URL"):
            mini_corpus["https://missing.example.com"]

    def test_duplicate_identical_page_is_idempotent(self):
        page = WebPage(url="u", title="t", body="b")
        corpus = Corpus([page])
        corpus.add(page)
        assert len(corpus) == 1

    def test_duplicate_url_different_content_rejected(self):
        corpus = Corpus([WebPage(url="u", title="t", body="b")])
        with pytest.raises(ValueError, match="duplicate URL"):
            corpus.add(WebPage(url="u", title="other", body="b"))

    def test_urls_preserve_insertion_order(self, mini_corpus):
        urls = mini_corpus.urls
        assert urls[0] == "https://studio.example.com/indy-4"
        assert len(urls) == 4

    def test_iteration(self, mini_corpus):
        assert sum(1 for _page in mini_corpus) == 4
