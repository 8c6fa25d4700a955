"""Rule behavior pinned against the committed fixture corpus.

Every ``*_violation.py`` fixture marks each bad line with a trailing
``# VIOLATION: <rule-id>`` comment; the tests assert the analyzer reports
*exactly* that set of ``(line, rule)`` pairs — no misses, no extras — so
the corpus and the rules cannot drift apart silently.  ``*_clean.py``
fixtures must produce zero findings.

Plain pytest only (no hypothesis): see tests/analysis/test_analysis_engine.py.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from tools.analysis import analyze_paths, analyze_source

FIXTURES = Path(__file__).parent / "fixtures"

_MARKER_RE = re.compile(r"#\s*VIOLATION:\s*([a-z][a-z0-9-]*)")

VIOLATION_FIXTURES = sorted(FIXTURES.glob("*_violation.py")) + [
    FIXTURES / "suppressed.py"
]
CLEAN_FIXTURES = sorted(FIXTURES.glob("*_clean.py"))


def expected_markers(path: Path) -> set:
    """The ``(line, rule)`` pairs a fixture declares inline."""
    markers = set()
    for number, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        for rule in _MARKER_RE.findall(line):
            markers.add((number, rule))
    return markers


def test_corpus_is_complete() -> None:
    # One violation + one clean fixture per rule family member, plus the
    # suppression fixture; a new rule must add its pair here.
    assert len(VIOLATION_FIXTURES) == 8
    assert len(CLEAN_FIXTURES) == 7


@pytest.mark.parametrize(
    "fixture", VIOLATION_FIXTURES, ids=lambda path: path.stem
)
def test_violation_fixture_findings_match_markers(fixture: Path) -> None:
    expected = expected_markers(fixture)
    assert expected, f"{fixture.name} declares no VIOLATION markers"
    found = {(f.line, f.rule) for f in analyze_paths([fixture])}
    assert found == expected


@pytest.mark.parametrize("fixture", CLEAN_FIXTURES, ids=lambda path: path.stem)
def test_clean_fixture_has_no_findings(fixture: Path) -> None:
    assert analyze_paths([fixture]) == []


def test_whole_corpus_finding_count() -> None:
    expected = sum(len(expected_markers(f)) for f in VIOLATION_FIXTURES)
    findings = analyze_paths([FIXTURES])
    assert len(findings) == expected


class TestLockRuleEdges:
    def test_module_level_with_lock_ignored(self) -> None:
        # The lock rules are class-scoped; module-level locks are out of
        # the `self.<lock>` discipline entirely.
        source = (
            "import threading\n"
            "LOCK = threading.Lock()\n"
            "with LOCK:\n"
            "    import time\n"
            "    time.sleep(1)\n"
        )
        assert analyze_source(source, path="m.py") == []

    def test_condition_counts_as_lock(self) -> None:
        source = (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._cv = threading.Condition()\n"
            "    def wake(self):\n"
            "        import time\n"
            "        with self._cv:\n"
            "            time.sleep(0.1)\n"
        )
        found = analyze_source(source, path="m.py")
        assert [f.rule for f in found] == ["lock-blocking-call"]

    def test_nested_with_keeps_lock_context(self) -> None:
        source = (
            "import threading, time\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def run(self, ctx):\n"
            "        with self._lock:\n"
            "            with ctx:\n"
            "                time.sleep(0.1)\n"
        )
        found = analyze_source(source, path="m.py")
        assert [f.rule for f in found] == ["lock-blocking-call"]


class TestScopeEdges:
    def test_determinism_rules_ignore_out_of_scope_modules(self) -> None:
        # Same source as a violation fixture, but no module pragma and a
        # path outside src/: the daemon may read clocks freely.
        source = "import time\n\nNOW = time.time()\n"
        assert analyze_source(source, path="/tmp/daemon_helper.py") == []

    def test_endian_rule_scoped_to_storage_and_serving(self) -> None:
        source = "import struct\nRAW = struct.pack('Q', 1)\n"
        assert analyze_source(source, path="/tmp/loose.py") == []
        scoped = "# repro: module(repro.storage.blocks)\n" + source
        found = analyze_source(scoped, path="/tmp/loose.py")
        assert [f.rule for f in found] == ["explicit-endian"]

    def test_write_path_rule_exempts_storage_implementation(self) -> None:
        # repro.storage.artifact IS the tmp+replace+fsync implementation;
        # the rule polices the serving layer above it.
        source = (
            "# repro: module(repro.storage.artifact)\n"
            "import os\n"
            "def publish(tmp, final):\n"
            "    os.replace(tmp, final)\n"
        )
        assert analyze_source(source, path="/tmp/loose.py") == []
