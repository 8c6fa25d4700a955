"""Mmap lifetime: typed views over an ArtifactMapping must be adopted.

``read_artifact`` hands out an ``ArtifactMapping`` whose ``close()``
unmaps the file — but only once every exported buffer is released.  A ``memoryview.cast`` view that escapes a function (returned,
or stored on ``self``) without going through ``ArtifactMapping.adopt()``
is invisible to that accounting: it pins the map forever or, worse, dies
with a ``BufferError``/segfault-shaped surprise when the mapping closes
under it.  PR 6 made ``adopt()`` the single registration point; this rule
makes skipping it a finding.

The analysis is per-function dataflow, deliberately simple: a local bound
from a ``.cast(...)`` call is a *view*; passing it to any ``.adopt(...)``
call marks it adopted; returning or ``self``-storing an unadopted view
(or a raw ``.cast(...)`` expression) is a violation.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from tools.analysis.engine import Finding, ModuleInfo, Rule, register

__all__ = ["MmapViewEscapeRule"]


def _is_cast_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "cast"
    )


def _is_adopt_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "adopt"
    )


@register
class MmapViewEscapeRule(Rule):
    """Cast views may not escape a function without adopt()."""

    id = "mmap-view-escape"
    summary = (
        "a memoryview.cast view escapes its function (returned or stored "
        "on self) without ArtifactMapping.adopt()"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(module, node)

    def _check_function(
        self, module: ModuleInfo, function: ast.FunctionDef
    ) -> Iterator[Finding]:
        views: Set[str] = set()
        adopted: Set[str] = set()

        # Pass 1: which locals are cast views, which names get adopted.
        for node in ast.walk(function):
            if isinstance(node, ast.Assign) and _is_cast_call(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        views.add(target.id)
            if isinstance(node, ast.Call) and _is_adopt_call(node):
                for arg in node.args:
                    if isinstance(arg, ast.Name):
                        adopted.add(arg.id)
                    elif _is_cast_call(arg):
                        pass  # adopt(x.cast(...)) is the blessed idiom

        escaped = views - adopted

        # Pass 2: flag escapes.
        for node in ast.walk(function):
            if isinstance(node, ast.Return) and node.value is not None:
                value = node.value
                if isinstance(value, ast.Name) and value.id in escaped:
                    yield self.finding(
                        module,
                        node,
                        f"returning cast view `{value.id}` without "
                        f"`adopt()`; the mapping cannot account for it "
                        f"(return `mapping.adopt({value.id})` instead)",
                    )
                elif _is_cast_call(value):
                    yield self.finding(
                        module,
                        node,
                        "returning a raw `.cast(...)` view; wrap it in "
                        "`mapping.adopt(...)` so close() can account for it",
                    )
            elif isinstance(node, ast.Assign):
                stores_on_self = any(
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    for target in node.targets
                )
                if not stores_on_self:
                    continue
                value = node.value
                if isinstance(value, ast.Name) and value.id in escaped:
                    yield self.finding(
                        module,
                        node,
                        f"storing cast view `{value.id}` on self without "
                        f"`adopt()`; the view outlives this call unseen by "
                        f"the mapping",
                    )
                elif _is_cast_call(value):
                    yield self.finding(
                        module,
                        node,
                        "storing a raw `.cast(...)` view on self; wrap it "
                        "in `mapping.adopt(...)` first",
                    )
