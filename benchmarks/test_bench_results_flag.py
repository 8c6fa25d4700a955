"""``benchmarks/results/*.txt`` are rewritten only under ``--write-results``;
without it they are the expected output of the paper-table benches."""

import pytest

from benchmarks.conftest import RESULTS_DIR, write_result


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
