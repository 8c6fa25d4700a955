"""Newline-delimited JSON persistence for log records.

JSONL is the interchange format used by the examples and the benchmark
harness to snapshot generated Search Data and Click Data so experiments are
replayable without re-running the simulator.

Reading splits the file in text mode, which breaks lines only at ``\n``,
``\r`` and ``\r\n``.  ``write_jsonl`` writes U+2028, U+2029 and U+0085
unescaped (``ensure_ascii=False``), and ``str.splitlines()`` would break a
query holding one of them into two lines.  Each stripped line is parsed by
the ``json`` module's C scanner directly: ``json.loads`` would wrap the
same scan in Python and run two whitespace regexes per line.  The scan must
end at the end of the line, so trailing data is rejected as ``json.loads``
rejects it.
"""

from __future__ import annotations

import dataclasses
import json
import json.scanner
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TypeVar

__all__ = ["write_jsonl", "read_jsonl", "read_jsonl_as"]

T = TypeVar("T")

# The C scanner behind json.loads; called as scan(text, index) it returns
# (value, end index) or raises StopIteration / JSONDecodeError.
_scan = json.scanner.make_scanner(json.JSONDecoder())


def _to_plain(record: Any) -> Any:
    """Convert dataclasses (possibly nested) into JSON-serialisable objects."""
    if dataclasses.is_dataclass(record) and not isinstance(record, type):
        return {
            field.name: _to_plain(getattr(record, field.name))
            for field in dataclasses.fields(record)
        }
    if isinstance(record, dict):
        return {key: _to_plain(value) for key, value in record.items()}
    if isinstance(record, (set, frozenset)):
        return sorted(_to_plain(item) for item in record)
    if isinstance(record, (list, tuple)):
        return [_to_plain(item) for item in record]
    return record


def write_jsonl(path: str | Path, records: Iterable[Any]) -> int:
    """Write *records* to *path*, one JSON object per line.

    Returns the number of records written.  Dataclass instances (also
    nested in containers) are written field by field and sets as sorted
    lists, see :func:`_to_plain`.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(_to_plain(record), ensure_ascii=False, sort_keys=True))
            handle.write("\n")
            count += 1
    return count


def _numbered_rows(path: Path) -> Iterator[tuple[int, dict[str, Any]]]:
    """``(line number, parsed object)`` for every non-blank line of *path*."""
    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row, end = _scan(line, 0)
            except (StopIteration, json.JSONDecodeError) as exc:
                raise ValueError(f"{path}:{line_number}: invalid JSON line") from exc
            if end != len(line):
                raise ValueError(f"{path}:{line_number}: invalid JSON line (trailing data)")
            if not isinstance(row, dict):
                raise ValueError(
                    f"{path}:{line_number}: expected a JSON object, got {type(row).__name__}"
                )
            yield line_number, row


def read_jsonl(path: str | Path) -> Iterator[dict[str, Any]]:
    """Yield each line of *path* parsed as a JSON object.

    Blank lines are skipped; a line that is not valid JSON, or is valid JSON
    but not an object, raises ``ValueError`` with the offending line number
    so corrupt log dumps fail loudly.
    """
    for _line_number, row in _numbered_rows(Path(path)):
        yield row


def read_jsonl_as(path: str | Path, factory: Callable[..., T]) -> Iterator[T]:
    """Read *path* and construct ``factory(**record)`` for every line.

    *factory* is typically a dataclass.  A missing or extra key, or a value
    the factory rejects, raises ``ValueError("<path>:<line>: ...")`` so
    schema drift between writer and reader names the line it was found on.
    """
    path = Path(path)
    for line_number, row in _numbered_rows(path):
        try:
            record = factory(**row)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}:{line_number}: {exc}") from exc
        yield record
