"""Every exported name of the system half has a caller that is not a test.

A name listed in a module's ``__all__`` under one of :data:`PACKAGES` must
either be referenced by a non-test file under ``src/``, ``examples/`` or
``benchmarks/`` other than its own module and its package ``__init__``, or
be used by its own module outside its definition and ``__all__``.  A name
whose only caller is a test is dead weight that every refactor has to carry;
delete it instead.  The check reads source with :mod:`ast` and runs nothing.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGES = (
    "core", "clicklog", "matching", "search", "serving", "server", "scenarios", "storage", "text",
)

# Kept without a caller, each for a stated reason.
ALLOWED = {
    # Eq. 3 and Eq. 4 as the paper writes them; tests/conftest.py's
    # reference_entry scores every candidate with them, and mine_entity
    # is checked against that reference.
    "repro.core.selection.intersecting_page_count",
    "repro.core.selection.intersecting_click_ratio",
}


def _all_node(tree: ast.Module) -> ast.Assign | None:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return node
    return None


def _referenced(tree: ast.AST, *, skip: tuple[ast.AST, ...] = ()) -> set[str]:
    """Every identifier *tree* reads, imports or looks up as an attribute."""
    names: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        stack.extend(ast.iter_child_nodes(node))
    return names


def _definitions(tree: ast.Module, name: str) -> tuple[ast.AST, ...]:
    """The top-level statements that define *name*."""
    found: list[ast.AST] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name == name:
                found.append(node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(target, ast.Name) and target.id == name for target in targets):
                found.append(node)
    return tuple(found)


def _callers() -> dict[Path, set[str]]:
    files = [
        path
        for top in ("src", "examples", "benchmarks")
        for path in sorted((ROOT / top).rglob("*.py"))
        if not path.name.startswith("test_") and path.name != "conftest.py"
    ]
    return {path: _referenced(ast.parse(path.read_text(encoding="utf-8"))) for path in files}


def uncalled_names(packages: tuple[str, ...] = PACKAGES) -> list[str]:
    callers = _callers()
    uncalled = []
    for package in packages:
        package_dir = SRC / "repro" / package
        for module in sorted(package_dir.glob("*.py")):
            tree = ast.parse(module.read_text(encoding="utf-8"))
            dotted = f"repro.{package}.{module.stem}"
            own = (module, package_dir / "__init__.py")
            exported = _all_node(tree)
            if exported is None:
                continue
            for element in exported.value.elts:  # type: ignore[attr-defined]
                name = element.value
                definitions = _definitions(tree, name)
                if not definitions:
                    continue  # a re-export, checked in its defining module
                if any(name in names for path, names in callers.items() if path not in own):
                    continue
                if name in _referenced(tree, skip=(exported, *definitions)):
                    continue
                uncalled.append(f"{dotted}.{name}")
    return uncalled


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_has_a_non_test_caller(package):
    assert [name for name in uncalled_names((package,)) if name not in ALLOWED] == []


def test_every_allowed_name_still_exists_without_a_caller():
    # An allowlist entry that gained a caller, or was deleted, goes.
    assert set(uncalled_names()) >= ALLOWED
