"""Self-hosting: the analyzer keeps its own repository clean.

This is the enforcement half of the CI `static-analysis` job, runnable
locally: `src/` must produce zero findings, the committed fixture corpus
must fail, and the CLI must report both through its exit code.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import analyze_paths
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"
FIXTURES = Path(__file__).parent / "fixtures"


def test_src_tree_is_clean() -> None:
    findings = analyze_paths([SRC])
    assert findings == [], "\n".join(f.format() for f in findings)


def test_cli_exit_zero_on_clean_tree(capsys: pytest.CaptureFixture) -> None:
    assert main(["analyze", str(SRC)]) == 0
    assert capsys.readouterr().out.strip() == "no findings"


def test_cli_exit_nonzero_on_fixture_corpus(
    capsys: pytest.CaptureFixture,
) -> None:
    assert main(["analyze", str(FIXTURES)]) == 1
    out = capsys.readouterr().out
    assert "findings" in out.splitlines()[-1]


def test_cli_json_format(capsys: pytest.CaptureFixture) -> None:
    assert main(["analyze", "--format", "json", str(FIXTURES)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["format"] == 1
    assert payload["count"] == len(payload["findings"]) > 0


def test_cli_list_rules(capsys: pytest.CaptureFixture) -> None:
    assert main(["analyze", "--list-rules"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    ids = [line.split(":", 1)[0] for line in lines]
    assert "lock-guarded-attr" in ids
    assert ids == sorted(ids)


def test_default_paths_is_src() -> None:
    from repro.cli import build_parser

    args = build_parser().parse_args(["analyze"])
    assert args.paths == ["src"]
