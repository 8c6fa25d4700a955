"""Tests for repro.text.similarity."""

import math

from repro.text.similarity import levenshtein_distance, levenshtein_similarity


class TestLevenshtein:
    def test_identical(self):
        assert levenshtein_distance("kitten", "kitten") == 0

    def test_classic_example(self):
        assert levenshtein_distance("kitten", "sitting") == 3

    def test_empty_strings(self):
        assert levenshtein_distance("", "") == 0
        assert levenshtein_distance("abc", "") == 3
        assert levenshtein_distance("", "abcd") == 4

    def test_symmetric(self):
        assert levenshtein_distance("indy", "indiana") == levenshtein_distance("indiana", "indy")

    def test_similarity_range(self):
        assert levenshtein_similarity("abc", "abc") == 1.0
        assert levenshtein_similarity("abc", "xyz") == 0.0
        assert levenshtein_similarity("", "") == 1.0

    def test_similarity_partial(self):
        assert math.isclose(levenshtein_similarity("abcd", "abce"), 0.75)
