"""Tests for query segmentation."""

import pytest

from repro.matching.index import DictionaryEntry
from repro.matching.segmentation import QuerySegmenter
from repro.serving.artifact import SynonymArtifact


@pytest.fixture()
def dictionary():
    return SynonymArtifact.from_entries(
        [
            DictionaryEntry("indy 4", "m1"),
            DictionaryEntry("indiana jones 4", "m1"),
            DictionaryEntry("madagascar 2", "m2"),
            DictionaryEntry("san fran", "city-sf"),
        ]
    )


@pytest.fixture()
def segmenter(dictionary):
    return QuerySegmenter(dictionary)


class TestSegmentation:
    def test_finds_entity_span_with_remainder(self, segmenter):
        segment = segmenter.best_segment("indy 4 near san fran")
        assert segment is not None
        assert segment.mention == "indy 4"
        assert segment.remainder == "near san fran"
        assert segment.entity_ids == frozenset({"m1"})

    def test_longest_span_preferred(self, segmenter):
        segment = segmenter.best_segment("indiana jones 4 showtimes")
        assert segment.mention == "indiana jones 4"

    def test_all_segments_reported(self, segmenter):
        segments = segmenter.segments("indy 4 near san fran")
        mentions = {segment.mention for segment in segments}
        assert {"indy 4", "san fran"} <= mentions

    def test_no_match(self, segmenter):
        assert segmenter.best_segment("completely unrelated words") is None
        assert segmenter.segments("") == []

    def test_span_offsets(self, segmenter):
        segment = segmenter.best_segment("watch indy 4 tonight")
        assert (segment.start, segment.end) == (1, 3)
        assert segment.token_length == 2

    def test_whole_query_is_mention(self, segmenter):
        segment = segmenter.best_segment("madagascar 2")
        assert segment.mention == "madagascar 2"
        assert segment.remainder == ""

    def test_raw_unnormalized_query(self, segmenter):
        segment = segmenter.best_segment("  INDY-4 near San-Fran!!")
        assert segment.mention == "indy 4"

    def test_span_limit_is_the_longest_entry(self, segmenter):
        assert segmenter.max_span_tokens == 3  # "indiana jones 4"

    def test_empty_index_still_probes_single_tokens(self):
        assert QuerySegmenter(SynonymArtifact.from_entries([])).max_span_tokens == 1
