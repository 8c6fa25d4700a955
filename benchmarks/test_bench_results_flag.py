"""``benchmarks/results/*.txt`` are rewritten only under ``--write-results``."""

from benchmarks.conftest import write_result


def test_results_are_written_only_on_request(results_dir, request, tmp_path):
    assert (results_dir is not None) == request.config.getoption("--write-results")
    write_result(None, "table.txt", "rows")  # the default run: nowhere to write, no error
    write_result(tmp_path, "table.txt", "rows")
    assert (tmp_path / "table.txt").read_text(encoding="utf-8") == "rows\n"
