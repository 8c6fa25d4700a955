"""Property-based tests for the text substrate (hypothesis)."""

import string

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.text.normalize import (
    normalize,
    normalize_whitespace,
    strip_accents,
    strip_punctuation,
)
from repro.text.similarity import levenshtein_distance, levenshtein_similarity
from repro.text.tokenize import tokenize

from tests.matching.fuzzy_reference import classic_levenshtein_distance

# Strategies: printable text with a bias toward short query-like strings.
text_strategy = st.text(alphabet=string.printable, max_size=40)
word_strategy = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=15)
# Few letters and a space: common prefixes, suffixes and repeats are likely.
edit_text_strategy = st.text(alphabet="ab c", max_size=12)


class TestNormalizeProperties:
    @given(text_strategy)
    def test_idempotent(self, text):
        once = normalize(text)
        assert normalize(once) == once

    @given(st.text(max_size=40))
    @example("a\n")
    @example("a  b")
    @example("É")
    @example("director's")
    @example("")
    @example("indy 4")
    def test_fast_path_agrees_with_the_full_pipeline(self, text):
        # normalize() returns already-normalized ASCII unchanged without
        # running the pipeline; spelled out from its public steps, the
        # pipeline must agree on every input, and be idempotent on all of
        # Unicode, not just printable ASCII.
        full = normalize_whitespace(strip_punctuation(strip_accents(text).lower()))
        assert normalize(text) == full
        assert normalize(full) == full

    @given(text_strategy)
    def test_output_is_lowercase_and_trimmed(self, text):
        result = normalize(text)
        assert result == result.lower()
        assert result == result.strip()
        assert "  " not in result

    @given(text_strategy)
    def test_tokenize_consistent_with_normalize(self, text):
        assert tokenize(text) == tokenize(normalize(text), normalized=True)


class TestLevenshteinProperties:
    @given(word_strategy, word_strategy)
    def test_symmetry(self, a, b):
        assert levenshtein_distance(a, b) == levenshtein_distance(b, a)

    @given(word_strategy)
    def test_identity(self, a):
        assert levenshtein_distance(a, a) == 0

    @given(word_strategy, word_strategy)
    def test_upper_bound_is_longer_length(self, a, b):
        assert levenshtein_distance(a, b) <= max(len(a), len(b))

    @given(word_strategy, word_strategy)
    def test_lower_bound_is_length_difference(self, a, b):
        assert levenshtein_distance(a, b) >= abs(len(a) - len(b))

    @settings(max_examples=40)
    @given(word_strategy, word_strategy, word_strategy)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein_distance(a, c) <= (
            levenshtein_distance(a, b) + levenshtein_distance(b, c)
        )

    @given(edit_text_strategy, edit_text_strategy)
    @example("canon eos 350d", "canon eos 450d")
    @example("abc", "")
    def test_cut_off_is_exact_up_to_the_bound_and_above_it_beyond(self, a, b):
        distance = classic_levenshtein_distance(a, b)
        assert levenshtein_distance(a, b) == distance
        for bound in range(0, max(len(a), len(b)) + 2):
            bounded = levenshtein_distance(a, b, max_distance=bound)
            if distance <= bound:
                assert bounded == distance, bound
            else:
                assert bounded > bound, bound

    @given(word_strategy, word_strategy)
    def test_similarity_bounds(self, a, b):
        assert 0.0 <= levenshtein_similarity(a, b) <= 1.0
