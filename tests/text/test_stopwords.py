"""Tests for repro.text.stopwords."""

from repro.text.stopwords import STOPWORDS, remove_stopwords


class TestStopwords:
    def test_common_words_present(self):
        for word in ("the", "and", "of", "a"):
            assert word in STOPWORDS

    def test_is_stopword(self):
        assert "the" in STOPWORDS
        assert "indiana" not in STOPWORDS

    def test_remove_stopwords_preserves_order(self):
        tokens = ["the", "kingdom", "of", "the", "crystal", "skull"]
        assert remove_stopwords(tokens) == ["kingdom", "crystal", "skull"]

    def test_remove_stopwords_keeps_duplicates_of_content_words(self):
        assert remove_stopwords(["new", "new", "the"]) == ["new", "new"]
