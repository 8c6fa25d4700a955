"""Engine mechanics: parsing, module names, suppressions, registry.

Deliberately runnable under plain pytest (no hypothesis) — this mirrors
the tier-1 dependency footprint, so the static-analysis job can run the
analyzer's own tests in a minimal environment.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from tools.analysis.engine import (
    Finding,
    ModuleInfo,
    Rule,
    analyze_paths,
    analyze_source,
    iter_python_files,
    registered_rules,
)

EXPECTED_RULE_IDS = [
    "artifact-write-path",
    "explicit-endian",
    "lock-blocking-call",
    "lock-guarded-attr",
    "mmap-view-escape",
    "nondeterministic-call",
    "unordered-set-iteration",
]


class TestModuleInfo:
    def test_module_name_from_src_layout(self) -> None:
        info = ModuleInfo.parse(
            Path("/somewhere/src/repro/serving/artifact.py"), "x = 1\n"
        )
        assert info.module == "repro.serving.artifact"

    def test_module_name_package_init(self) -> None:
        info = ModuleInfo.parse(
            Path("/somewhere/src/repro/serving/__init__.py"), "x = 1\n"
        )
        assert info.module == "repro.serving"

    def test_module_pragma_wins_over_path(self) -> None:
        source = "# repro: module(repro.scenarios.workload)\nx = 1\n"
        info = ModuleInfo.parse(Path("/tmp/fixture_file.py"), source)
        assert info.module == "repro.scenarios.workload"

    def test_module_name_outside_any_layout_is_stem(self) -> None:
        info = ModuleInfo.parse(Path("/tmp/loose_script.py"), "x = 1\n")
        assert info.module == "loose_script"

    def test_allows_collected_per_line(self) -> None:
        source = (
            "x = 1  # repro: allow(some-rule)\n"
            "# repro: allow(other-rule) with a reason\n"
            "y = 2\n"
        )
        info = ModuleInfo.parse(Path("f.py"), source)
        assert info.is_allowed("some-rule", 1)
        assert info.is_allowed("other-rule", 2)  # comment line itself
        assert info.is_allowed("other-rule", 3)  # statement below
        assert not info.is_allowed("some-rule", 3)
        assert not info.is_allowed("other-rule", 4)


class _AlwaysFire(Rule):
    """Test rule: one finding at line 1 of every module."""

    id = "always-fire"
    summary = "fires once per module"

    def check(self, module):
        yield Finding(
            path=str(module.path), line=1, col=0, rule=self.id, message="hit"
        )


class TestSuppression:
    def test_same_line_allow_suppresses(self) -> None:
        found = analyze_source(
            "x = 1  # repro: allow(always-fire)\n",
            path="f.py",
            rules=[_AlwaysFire()],
        )
        assert found == []

    def test_unrelated_allow_does_not_suppress(self) -> None:
        found = analyze_source(
            "x = 1  # repro: allow(other-rule)\n",
            path="f.py",
            rules=[_AlwaysFire()],
        )
        assert [f.rule for f in found] == ["always-fire"]

    def test_parse_error_becomes_finding(self) -> None:
        found = analyze_source("def broken(:\n", path="bad.py", rules=[])
        assert len(found) == 1
        assert found[0].rule == "parse-error"
        assert found[0].path == "bad.py"


class TestRegistry:
    def test_catalog_is_complete_and_sorted(self) -> None:
        rules = registered_rules()
        assert [rule.id for rule in rules] == EXPECTED_RULE_IDS

    def test_registered_rules_is_stable(self) -> None:
        first = registered_rules()
        second = registered_rules()
        assert [r.id for r in first] == [r.id for r in second]

    def test_every_rule_has_a_summary(self) -> None:
        for rule in registered_rules():
            assert rule.summary, rule.id


class TestDriver:
    def test_iter_python_files_dedups_and_expands(self, tmp_path: Path) -> None:
        (tmp_path / "pkg").mkdir()
        a = tmp_path / "pkg" / "a.py"
        b = tmp_path / "pkg" / "b.py"
        a.write_text("x = 1\n")
        b.write_text("y = 2\n")
        (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
        files = list(iter_python_files([tmp_path, a]))
        assert sorted(f.name for f in files) == ["a.py", "b.py"]

    def test_finding_format_shape(self) -> None:
        finding = Finding(
            path="src/x.py", line=3, col=7, rule="some-rule", message="boom"
        )
        assert finding.format() == "src/x.py:3:7: some-rule: boom"

    def test_findings_sort_by_location(self) -> None:
        early = Finding(path="a.py", line=1, col=0, rule="z", message="m")
        late = Finding(path="a.py", line=9, col=0, rule="a", message="m")
        other = Finding(path="b.py", line=1, col=0, rule="a", message="m")
        assert sorted([other, late, early]) == [early, late, other]

    def test_base_rule_check_is_abstract(self) -> None:
        with pytest.raises(NotImplementedError):
            list(Rule().check(ModuleInfo.parse(Path("f.py"), "x = 1\n")))

    def test_module_info_exposes_tree(self) -> None:
        info = ModuleInfo.parse(Path("f.py"), "x = 1\n")
        assert isinstance(info.tree, ast.Module)

    def test_sources_decode_as_python_decodes_them(self, tmp_path: Path) -> None:
        torn = (
            "import threading\n"
            "class Torn:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def set(self):\n"
            "        with self._lock:\n"
            "            self._n = 1\n"
            "    def get(self):\n"
            "        return self._n\n"
        )
        cookie = "# -*- coding: latin-1 -*-\nname = \"caf\u00e9\"\n" + torn
        (tmp_path / "cookie.py").write_bytes(cookie.encode("latin-1"))
        (tmp_path / "undecodable.py").write_bytes(b"x = 1\ny = 2\nname = \"caf\xe9\"\n")
        (tmp_path / "sibling.py").write_text(torn, encoding="utf-8")
        found = {
            (Path(f.path).name, f.line, f.rule) for f in analyze_paths([tmp_path])
        }
        assert found == {
            ("cookie.py", 11, "lock-guarded-attr"),
            ("sibling.py", 9, "lock-guarded-attr"),
            ("undecodable.py", 3, "parse-error"),
        }
