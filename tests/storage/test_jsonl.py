"""Tests for repro.storage.jsonl."""

from dataclasses import dataclass

import pytest

from repro.clicklog.records import ClickRecord
from repro.storage.jsonl import read_jsonl, read_jsonl_as, write_jsonl


@dataclass
class _Row:
    name: str
    value: int


class TestWriteRead:
    def test_roundtrip_dicts(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        rows = [{"a": 1}, {"a": 2, "b": "x"}]
        assert write_jsonl(path, rows) == 2
        assert list(read_jsonl(path)) == rows

    def test_roundtrip_dataclasses(self, tmp_path):
        path = tmp_path / "records.jsonl"
        records = [ClickRecord("indy 4", "https://example.com/a", 3)]
        write_jsonl(path, records)
        loaded = list(read_jsonl_as(path, ClickRecord))
        assert loaded == records

    def test_write_creates_parent_directories(self, tmp_path):
        path = tmp_path / "nested" / "deeper" / "rows.jsonl"
        write_jsonl(path, [{"a": 1}])
        assert path.exists()

    def test_empty_write(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        assert write_jsonl(path, []) == 0
        assert list(read_jsonl(path)) == []

    def test_sets_and_tuples_serialised(self, tmp_path):
        @dataclass
        class WithCollections:
            items: tuple
            tags: frozenset

        path = tmp_path / "coll.jsonl"
        write_jsonl(path, [WithCollections(items=("a", "b"), tags=frozenset({"t2", "t1"}))])
        (row,) = list(read_jsonl(path))
        assert row["items"] == ["a", "b"]
        assert sorted(row["tags"]) == ["t1", "t2"]


class TestErrors:
    def test_malformed_line_raises_with_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\nnot json\n', encoding="utf-8")
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            list(read_jsonl(path))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blanks.jsonl"
        path.write_text('{"a": 1}\n\n\n{"a": 2}\n', encoding="utf-8")
        assert len(list(read_jsonl(path))) == 2

    def test_read_as_rejects_schema_drift(self, tmp_path):
        path = tmp_path / "drift.jsonl"
        path.write_text('{"name": "x", "value": 1, "extra": true}\n', encoding="utf-8")
        with pytest.raises(ValueError, match=r"drift\.jsonl:1: .*extra"):
            list(read_jsonl_as(path, _Row))

    def test_non_object_line_raises_with_location(self, tmp_path):
        path = tmp_path / "array.jsonl"
        path.write_text('{"ok": 1}\n\n[1, 2]\n', encoding="utf-8")
        with pytest.raises(ValueError, match=r"array\.jsonl:3: expected a JSON object, got list"):
            list(read_jsonl(path))

    def test_read_as_names_the_line_missing_a_key(self, tmp_path):
        path = tmp_path / "short.jsonl"
        path.write_text(
            '{"query": "q", "url": "u", "clicks": 2}\n{"query": "q", "url": "u"}\n',
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match=r"short\.jsonl:2: .*clicks"):
            list(read_jsonl_as(path, ClickRecord))

    def test_read_as_names_the_line_with_a_rejected_value(self, tmp_path):
        path = tmp_path / "typed.jsonl"
        path.write_text('{"query": "q", "url": "u", "clicks": "3"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match=r"typed\.jsonl:1: "):
            list(read_jsonl_as(path, ClickRecord))
        path.write_text('{"query": "q", "url": "u", "clicks": 0}\n', encoding="utf-8")
        with pytest.raises(ValueError, match=r"typed\.jsonl:1: clicks must be >= 1"):
            list(read_jsonl_as(path, ClickRecord))


class TestLineSemantics:
    """The reader splits in text mode and parses each line whole."""

    SEPARATORS = "a\u2028b\u2029c\u0085d"

    @pytest.mark.parametrize(
        "text, expected",
        [
            (None, [{"query": SEPARATORS}]),
            ('{"a": 1}\r\n{"a": 2}\r\n', [{"a": 1}, {"a": 2}]),
            ('{"a": 1}\n  \t \n\n{"a": 2}\n', [{"a": 1}, {"a": 2}]),
            ('{"a": 1}\n{"a": 1} x\n', 2),
            ('{"a": 1}{"b": 2}\n', 1),
            ('{"a": 1}\n\n[1]\n', 3),
            ('NaN\n', 1),
        ],
        ids=["unicode-separators", "crlf", "whitespace-lines", "trailing-data",
             "two-objects", "array", "nan"],
    )
    def test_lines(self, tmp_path, text, expected):
        path = tmp_path / "rows.jsonl"
        if text is None:
            # U+2028, U+2029 and U+0085 are written raw (ensure_ascii=False)
            # and must not split the row.
            write_jsonl(path, [{"query": self.SEPARATORS}])
            assert self.SEPARATORS in path.read_text(encoding="utf-8")
        else:
            path.write_bytes(text.encode("utf-8"))
        if isinstance(expected, list):
            assert list(read_jsonl(path)) == expected
        else:
            with pytest.raises(ValueError, match=rf"rows\.jsonl:{expected}: "):
                list(read_jsonl(path))
