"""Tests for the log record schemas."""

import pytest

from repro.clicklog.records import ClickRecord, SearchRecord


class TestSearchRecord:
    def test_valid(self):
        record = SearchRecord(query="indy 4", url="https://a.example", rank=1)
        assert record.rank == 1

    def test_rank_must_be_positive(self):
        with pytest.raises(ValueError):
            SearchRecord(query="q", url="u", rank=0)

    def test_query_must_be_nonempty(self):
        with pytest.raises(ValueError):
            SearchRecord(query="", url="u", rank=1)

    def test_url_must_be_nonempty(self):
        with pytest.raises(ValueError):
            SearchRecord(query="q", url="", rank=1)

    def test_hashable(self):
        assert len({SearchRecord("q", "u", 1), SearchRecord("q", "u", 1)}) == 1

    @pytest.mark.parametrize(
        "fields",
        [
            ("q", "u", 1.5),
            ("q", "u", float("inf")),
            ("q", "u", float("nan")),
            ("q", "u", True),
            (5, "u", 1),
            ("q", ["x"], 1),
        ],
    )
    def test_rejects_values_outside_the_tuple(self, fields):
        # ⟨q, p, r⟩: q and p are non-empty strings, r an int rank >= 1.
        with pytest.raises(ValueError):
            SearchRecord(*fields)


class TestClickRecord:
    def test_valid(self):
        record = ClickRecord(query="indy 4", url="https://a.example", clicks=5)
        assert record.clicks == 5

    def test_clicks_must_be_positive(self):
        with pytest.raises(ValueError):
            ClickRecord(query="q", url="u", clicks=0)

    def test_empty_fields_rejected(self):
        with pytest.raises(ValueError):
            ClickRecord(query="", url="u", clicks=1)
        with pytest.raises(ValueError):
            ClickRecord(query="q", url="", clicks=1)

    @pytest.mark.parametrize(
        "fields",
        [
            ("q", "u", float("nan")),
            ("q", "u", 2.5),
            ("q", "u", True),
            (5, "u", 1),
            ("q", ["x"], 1),
        ],
    )
    def test_rejects_values_outside_the_tuple(self, fields):
        # ⟨q, p, n⟩: q and p are non-empty strings, n an int count >= 1.
        with pytest.raises(ValueError):
            ClickRecord(*fields)
