"""Shared fixtures for the paper-table benchmarks.

One session fixture, :func:`quality_rows`, builds every world of the grid
(movies, cameras, movies' monthly log prefixes and the noise-scaled toy
worlds; the cameras world indexes ~7,000 pages and simulates 120,000
sessions) and runs :func:`repro.eval.run_quality` on them once.  The
seven table benches render their table from those rows and assert its
paper shape.

Output goes to ``benchmarks/results/`` only when pytest runs with
``--write-results``: the rows as ``quality.json`` and each rendered table as
``<name>.txt``.  An ordinary run leaves the working tree clean and fails if
a row or a rendering differs from the committed file, naming each row key
and field that moved, so no table cell moves unnoticed.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.eval import QualityRow, noise_worlds, prefix_worlds, run_quality  # noqa: E402
from repro.simulation import WorldConfig, build_world  # noqa: E402

RESULTS_DIR = Path(__file__).resolve().parent / "results"
QUALITY_RECORD = RESULTS_DIR / "quality.json"
QUALITY_FORMAT = 1


@pytest.fixture(scope="session")
def quality_rows() -> list[QualityRow]:
    """Every grid row: D1 (100 movie titles), D2 (882 camera names), the
    five monthly prefixes of D1's log and the four noise-scaled toy worlds."""
    movies = build_world(WorldConfig.movies())
    worlds = {
        "movies": movies,
        "cameras": build_world(WorldConfig.cameras()),
        **prefix_worlds(movies),
        **noise_worlds(),
    }
    return run_quality(worlds)


@pytest.fixture(scope="session")
def results_dir(request: pytest.FixtureRequest) -> Path | None:
    """Where rendered tables go, or ``None`` without ``--write-results``."""
    if not request.config.getoption("--write-results"):
        return None
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


def write_result(results_dir: Path | None, name: str, text: str) -> None:
    """Persist a rendered experiment table under ``benchmarks/results/``, or,
    without ``--write-results``, require it to equal the committed file."""
    if results_dir is not None:
        (results_dir / name).write_text(text + "\n", encoding="utf-8")
        return
    committed = (RESULTS_DIR / name).read_text(encoding="utf-8")
    assert text + "\n" == committed, (
        f"benchmarks/results/{name} no longer matches this rendering; "
        f"rerun with --write-results only to accept a deliberate change"
    )


def dump_rows(rows: list[QualityRow]) -> str:
    """The record's text: one JSON row per line, sorted by key."""
    body = ",\n".join(json.dumps(asdict(row)) for row in sorted(rows, key=lambda r: r.key))
    return f'{{"format": {QUALITY_FORMAT}, "rows": [\n{body}\n]}}\n'


def load_rows(text: str) -> list[QualityRow]:
    payload = json.loads(text)
    if payload.get("format") != QUALITY_FORMAT:
        raise ValueError(f"unknown quality record format {payload.get('format')!r}")
    return [QualityRow(**row) for row in payload["rows"]]


def moved_rows(committed: list[QualityRow], fresh: list[QualityRow]) -> list[str]:
    """One line per (row key, field, old -> new) that differs, plus rows
    present on one side only; empty when the two agree exactly."""
    old = {row.key: row for row in committed}
    new = {row.key: row for row in fresh}
    moved = []
    for key in sorted(old.keys() | new.keys()):
        if key not in new:
            moved.append(f"{key}: in the record, no longer computed")
        elif key not in old:
            moved.append(f"{key}: computed, not in the record")
        else:
            moved.extend(
                f"{key}: {field.name} {getattr(old[key], field.name)!r} -> "
                f"{getattr(new[key], field.name)!r}"
                for field in fields(QualityRow)
                if getattr(old[key], field.name) != getattr(new[key], field.name)
            )
    return moved


def pin_quality(results_dir: Path | None, rows: list[QualityRow], record: Path = QUALITY_RECORD) -> None:
    """Write *rows* as ``quality.json`` under ``--write-results``, or
    require them to equal the committed record exactly."""
    if results_dir is not None:
        (results_dir / record.name).write_text(dump_rows(rows), encoding="utf-8")
        return
    moved = moved_rows(load_rows(record.read_text(encoding="utf-8")), rows)
    assert not moved, (
        f"benchmarks/results/{record.name} no longer matches the computed rows "
        f"(rerun with --write-results only to accept a deliberate change):\n"
        + "\n".join(moved)
    )
