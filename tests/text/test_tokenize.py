"""Tests for repro.text.tokenize."""

from repro.text.tokenize import token_set, tokenize


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

    def test_tokens_are_the_words_of_the_normalized_string(self):
        assert tokenize("AT&T in 日本, Фильм 0001") == ["at", "t", "in", "日本", "фильм", "0001"]


class TestTokenSet:
    def test_deduplicates(self):
        assert token_set("the the the movie") == frozenset({"the", "movie"})

    def test_is_frozenset(self):
        assert isinstance(token_set("a b"), frozenset)

