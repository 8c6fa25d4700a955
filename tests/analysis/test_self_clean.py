"""Self-hosting: the analyzer keeps its own repository clean.

This is the enforcement half of the CI `static-analysis` job, runnable
locally: `src/` must produce zero findings, the committed fixture corpus
must fail, and `python -m tools.analysis` must report both through its
exit code.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from tools.analysis import analyze_paths
from tools.analysis.__main__ import build_parser, main

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"
FIXTURES = Path(__file__).parent / "fixtures"


def test_src_tree_is_clean() -> None:
    findings = analyze_paths([SRC])
    assert findings == [], "\n".join(f.format() for f in findings)


def test_cli_exit_zero_on_clean_tree(capsys: pytest.CaptureFixture) -> None:
    assert main([str(SRC)]) == 0
    assert capsys.readouterr().out.strip() == "no findings"


def test_cli_exit_nonzero_on_fixture_corpus(
    capsys: pytest.CaptureFixture,
) -> None:
    assert main([str(FIXTURES)]) == 1
    out = capsys.readouterr().out
    assert "findings" in out.splitlines()[-1]


def test_cli_list_rules(capsys: pytest.CaptureFixture) -> None:
    assert main(["--list-rules"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    ids = [line.split(":", 1)[0] for line in lines]
    assert "lock-guarded-attr" in ids
    assert ids == sorted(ids)


def test_default_paths_is_src() -> None:
    args = build_parser().parse_args([])
    assert args.paths == ["src"]


def test_analyze_missing_path(capsys: pytest.CaptureFixture) -> None:
    assert main(["does/not/exist.py"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "analyze: no such path: does/not/exist.py"
