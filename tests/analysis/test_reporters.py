"""Reporter output pinned: the text shape."""

from __future__ import annotations

from tools.analysis.__main__ import render_text
from tools.analysis.engine import Finding

FINDINGS = [
    Finding(
        path="src/a.py", line=3, col=4, rule="lock-guarded-attr", message="m1"
    ),
    Finding(
        path="src/b.py", line=9, col=0, rule="explicit-endian", message="m2"
    ),
]


def test_text_lists_each_finding_and_tally() -> None:
    text = render_text(FINDINGS)
    lines = text.splitlines()
    assert lines[0] == "src/a.py:3:4: lock-guarded-attr: m1"
    assert lines[1] == "src/b.py:9:0: explicit-endian: m2"
    assert lines[2] == "2 findings"


def test_text_singular_tally() -> None:
    assert render_text(FINDINGS[:1]).splitlines()[-1] == "1 finding"


def test_text_empty() -> None:
    assert render_text([]) == "no findings"
