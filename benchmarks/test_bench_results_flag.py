"""``benchmarks/results/`` is rewritten only under ``--write-results``;
without it, ``quality.json`` is the expected grid and the ``*.txt`` files
are the expected renderings of it."""

import json
import re

import pytest

from benchmarks.conftest import (
    QUALITY_RECORD,
    RESULTS_DIR,
    load_rows,
    moved_rows,
    pin_quality,
    write_result,
)
from repro.eval import TABLES


def test_results_are_written_only_on_request(results_dir, request, tmp_path):
    assert (results_dir is not None) == request.config.getoption("--write-results")
    write_result(tmp_path, "table.txt", "rows")
    assert (tmp_path / "table.txt").read_text(encoding="utf-8") == "rows\n"


def test_default_run_pins_the_committed_tables():
    name = "table1_hits_expansion.txt"
    committed = (RESULTS_DIR / name).read_text(encoding="utf-8")
    write_result(None, name, committed.removesuffix("\n"))  # unchanged: passes
    with pytest.raises(AssertionError, match=name):
        write_result(None, name, committed.replace("Us", "Them", 1))


def test_quality_record_equals_the_computed_rows(quality_rows, results_dir):
    pin_quality(results_dir, quality_rows)


def test_every_table_renders_from_the_committed_record_alone():
    rows = load_rows(QUALITY_RECORD.read_text(encoding="utf-8"))
    assert sorted(f"{name}.txt" for name in TABLES) == sorted(
        path.name for path in RESULTS_DIR.glob("*.txt")
    )
    for name, render in TABLES.items():
        assert render(rows) + "\n" == (RESULTS_DIR / f"{name}.txt").read_text(encoding="utf-8"), name


def test_the_pin_names_each_moved_row(tmp_path):
    rows = load_rows(QUALITY_RECORD.read_text(encoding="utf-8"))
    payload = json.loads(QUALITY_RECORD.read_text(encoding="utf-8"))
    perturbed = next(row for row in payload["rows"] if row["method"] == "Us" and row["surrogate_k"] == 3)
    perturbed["ipc"] += 1
    record = tmp_path / "quality.json"
    record.write_text(json.dumps(payload), encoding="utf-8")

    pin_quality(None, rows)  # the committed record pins its own rows
    with pytest.raises(AssertionError, match=re.escape("('movies', 11, 'Us', 3, 5, 0.1)")):
        pin_quality(None, rows, record=record)
    assert moved_rows(load_rows(record.read_text(encoding="utf-8")), rows) == [
        "('movies', 11, 'Us', 3, 4, 0.1): computed, not in the record",
        "('movies', 11, 'Us', 3, 5, 0.1): in the record, no longer computed",
    ]
