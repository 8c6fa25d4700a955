"""Property-based tests for the dictionary, segmenter and matcher."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matching.index import DictionaryEntry
from repro.matching.matcher import MatchOutcome, QueryMatcher
from repro.matching.segmentation import QuerySegmenter
from repro.serving.artifact import SynonymArtifact
from repro.text.normalize import normalize
from repro.text.tokenize import tokenize

word = st.text(alphabet=string.ascii_lowercase, min_size=2, max_size=8)
phrase = st.lists(word, min_size=1, max_size=4).map(" ".join)
entity_id = st.sampled_from(["e1", "e2", "e3"])
entries = st.lists(
    st.builds(DictionaryEntry, text=phrase, entity_id=entity_id),
    min_size=1,
    max_size=12,
)
raw_query = st.text(alphabet=string.ascii_letters + string.digits + " -:!", max_size=40)


class TestDictionaryProperties:
    @given(entries)
    def test_every_entry_is_exact_lookupable(self, dictionary_entries):
        dictionary = SynonymArtifact.from_entries(dictionary_entries)
        for entry in dictionary_entries:
            assert entry.entity_id in dictionary.entities_for(normalize(entry.text))
            assert entry.entity_id in dictionary.entities_for(entry.text)

    @given(entries)
    def test_token_index_consistent_with_entries(self, dictionary_entries):
        dictionary = SynonymArtifact.from_entries(dictionary_entries)
        for text, *_ in dictionary:
            for token in tokenize(text, normalized=True):
                assert text in dictionary.strings_containing_token(token)

    @given(entries)
    def test_adding_twice_never_grows_dictionary(self, dictionary_entries):
        once = SynonymArtifact.from_entries(dictionary_entries)
        twice = SynonymArtifact.from_entries(dictionary_entries + dictionary_entries)
        assert len(twice) == len(once)


class TestSegmenterProperties:
    @settings(max_examples=60)
    @given(entries, raw_query)
    def test_segments_are_substrings_of_the_query_token_stream(self, dictionary_entries, query):
        segmenter = QuerySegmenter(SynonymArtifact.from_entries(dictionary_entries))
        tokens = tokenize(query)
        for segment in segmenter.segments(query):
            assert 0 <= segment.start < segment.end <= len(tokens)
            assert segment.mention == " ".join(tokens[segment.start:segment.end])
            assert segment.entity_ids

    @settings(max_examples=60)
    @given(entries, raw_query)
    def test_best_segment_is_longest(self, dictionary_entries, query):
        segmenter = QuerySegmenter(SynonymArtifact.from_entries(dictionary_entries))
        segments = segmenter.segments(query)
        if not segments:
            return
        best = segmenter.best_segment(query)
        assert best.token_length == max(segment.token_length for segment in segments)

    @settings(max_examples=40)
    @given(entries)
    def test_every_dictionary_string_matches_itself(self, dictionary_entries):
        dictionary = SynonymArtifact.from_entries(dictionary_entries)
        segmenter = QuerySegmenter(dictionary)
        for text, *_ in dictionary:
            best = segmenter.best_segment(text)
            assert best is not None
            assert best.remainder == "" or best.token_length >= 1


class TestMatcherProperties:
    @settings(max_examples=60)
    @given(entries, raw_query)
    def test_matcher_never_raises_and_outcome_is_consistent(self, dictionary_entries, query):
        matcher = QueryMatcher(SynonymArtifact.from_entries(dictionary_entries))
        match = matcher.match(query)
        if match.outcome is MatchOutcome.NO_MATCH:
            assert not match.entity_ids
            assert not match.matched
        else:
            assert match.entity_ids
            assert match.matched
            assert 0.0 < match.score <= 1.0

    @settings(max_examples=40)
    @given(entries)
    def test_exact_dictionary_strings_always_match(self, dictionary_entries):
        dictionary = SynonymArtifact.from_entries(dictionary_entries)
        matcher = QueryMatcher(dictionary, enable_fuzzy=False)
        for text, entity_id, *_ in dictionary:
            match = matcher.match(text)
            assert match.outcome is MatchOutcome.EXACT
            assert entity_id in match.entity_ids

    @settings(max_examples=40)
    @given(entries, raw_query)
    def test_disabling_fuzzy_never_adds_matches(self, dictionary_entries, query):
        dictionary = SynonymArtifact.from_entries(dictionary_entries)
        strict = QueryMatcher(dictionary, enable_fuzzy=False).match(query)
        loose = QueryMatcher(dictionary, enable_fuzzy=True).match(query)
        if strict.matched:
            assert loose.matched
