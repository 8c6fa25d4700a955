"""Tests for repro.text.tokenize."""

import pytest

from repro.text.tokenize import ngrams, token_set, tokenize


class TestTokenize:
    def test_basic_split(self):
        assert tokenize("Indiana Jones 4") == ["indiana", "jones", "4"]

    def test_model_numbers_stay_joined(self):
        assert tokenize("Canon EOS-350D") == ["canon", "eos", "350d"]

    def test_already_normalized_flag(self):
        assert tokenize("canon eos 350d", normalized=True) == ["canon", "eos", "350d"]

    def test_empty(self):
        assert tokenize("") == []

    def test_punctuation_only(self):
        assert tokenize("!!! --- ???") == []


class TestTokenSet:
    def test_deduplicates(self):
        assert token_set("the the the movie") == frozenset({"the", "movie"})

    def test_is_frozenset(self):
        assert isinstance(token_set("a b"), frozenset)


class TestNgrams:
    def test_bigrams(self):
        assert list(ngrams(["a", "b", "c"], 2)) == [("a", "b"), ("b", "c")]

    def test_window_equal_to_length(self):
        assert list(ngrams(["a", "b"], 2)) == [("a", "b")]

    def test_window_longer_than_input(self):
        assert list(ngrams(["a"], 3)) == []

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            list(ngrams(["a"], 0))
