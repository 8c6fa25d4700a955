"""Lock discipline: guarded attributes stay guarded, held locks stay fast.

The invariant comes straight from PR 5's torn-``/stats`` bug: counters
written under ``MatchService._lock`` were read lock-free by another
thread, so ``/stats`` could observe a half-updated pair.  The fix was
mechanical (take the lock, or snapshot); these rules make the mechanical
part automatic.

A class is *lock-guarded* when its ``__init__`` assigns a
``threading.Lock()`` / ``RLock()`` / ``Condition()`` / ``Semaphore()`` to
a ``self`` attribute.  An attribute is *guarded* when any method assigns
it (plain ``self.X = ...`` / ``self.X += ...``) inside a
``with self.<lock>:`` block.  Subscript stores (``self._counts[k] = v``)
deliberately do not mark the mapping attribute as guarded — replacing the
whole binding is what tears, mutating one slot under the GIL is a
separate judgement call.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from tools.analysis.engine import Finding, ModuleInfo, Rule, register
from tools.analysis.rules._common import dotted_name, self_attr_name

__all__ = ["LockBlockingCallRule", "LockGuardedAttrRule"]

_LOCK_FACTORIES = {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}

# Dotted calls that block (or hit the filesystem/network) and therefore
# must not run while a lock is held.
_BLOCKING_DOTTED = {
    "os.fsync",
    "os.rename",
    "os.replace",
    "shutil.copy",
    "shutil.copyfile",
    "shutil.move",
    "socket.create_connection",
    "subprocess.check_call",
    "subprocess.check_output",
    "subprocess.run",
    "time.sleep",
}

# Method names whose call on *any* receiver is treated as blocking I/O.
# Deliberately file/socket verbs only — container methods (`get`, `put`,
# `move_to_end`, …) are fine under a lock.
_BLOCKING_METHODS = {
    "accept",
    "connect",
    "flush",
    "fsync",
    "recv",
    "sendall",
    "sleep",
    "write",
    "writelines",
}


def _lock_attrs(class_def: ast.ClassDef) -> Set[str]:
    """Names of ``self.X`` attributes ``__init__`` binds to lock objects."""
    attrs: Set[str] = set()
    for node in class_def.body:
        if isinstance(node, ast.FunctionDef) and node.name == "__init__":
            for statement in ast.walk(node):
                if not isinstance(statement, ast.Assign):
                    continue
                value = statement.value
                if not isinstance(value, ast.Call):
                    continue
                callee = dotted_name(value.func)
                if callee.rsplit(".", 1)[-1] not in _LOCK_FACTORIES:
                    continue
                for target in statement.targets:
                    name = self_attr_name(target)
                    if name:
                        attrs.add(name)
    return attrs


def _is_lock_context(item: ast.withitem, lock_attrs: Set[str]) -> bool:
    """True when a ``with`` item enters one of the class's locks."""
    return self_attr_name(item.context_expr) in lock_attrs


def _methods(class_def: ast.ClassDef) -> List[ast.FunctionDef]:
    return [
        node
        for node in class_def.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def _guarded_attrs(
    methods: List[ast.FunctionDef], lock_attrs: Set[str]
) -> Dict[str, Tuple[int, int]]:
    """Attr name -> (line, col) of the first locked assignment to it."""
    guarded: Dict[str, Tuple[int, int]] = {}

    def visit(node: ast.AST, under_lock: bool) -> None:
        if isinstance(node, ast.With):
            locked = under_lock or any(
                _is_lock_context(item, lock_attrs) for item in node.items
            )
            for item in node.items:
                visit(item, under_lock)
            for statement in node.body:
                visit(statement, locked)
            return
        if under_lock and isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                name = self_attr_name(target)
                if name and name not in lock_attrs and name not in guarded:
                    guarded[name] = (target.lineno, target.col_offset)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # A closure body runs later, outside this lock acquisition.
            under_lock = False
        for child in ast.iter_child_nodes(node):
            visit(child, under_lock)

    for method in methods:
        visit(method, False)
    return guarded


@register
class LockGuardedAttrRule(Rule):
    """Attributes assigned under a lock must always be accessed under it."""

    id = "lock-guarded-attr"
    summary = (
        "attribute assigned inside `with self.<lock>:` is read or written "
        "outside a lock context in the same class"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for class_def in ast.walk(module.tree):
            if isinstance(class_def, ast.ClassDef):
                yield from self._check_class(module, class_def)

    def _check_class(
        self, module: ModuleInfo, class_def: ast.ClassDef
    ) -> Iterator[Finding]:
        lock_attrs = _lock_attrs(class_def)
        if not lock_attrs:
            return
        methods = _methods(class_def)
        guarded = _guarded_attrs(methods, lock_attrs)
        if not guarded:
            return

        findings: List[Finding] = []

        def visit(node: ast.AST, under_lock: bool) -> None:
            if isinstance(node, ast.With):
                locked = under_lock or any(
                    _is_lock_context(item, lock_attrs) for item in node.items
                )
                for item in node.items:
                    visit(item, under_lock)
                for statement in node.body:
                    visit(statement, locked)
                return
            if not under_lock:
                name = self_attr_name(node)
                if name in guarded:
                    findings.append(
                        self.finding(
                            module,
                            node,
                            f"`self.{name}` is assigned under "
                            f"`with self.<lock>:` (first at line "
                            f"{guarded[name][0]}) but accessed here without "
                            f"the lock; take the lock or read a snapshot",
                        )
                    )
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                under_lock = False
            for child in ast.iter_child_nodes(node):
                visit(child, under_lock)

        for method in methods:
            if method.name == "__init__":
                # Construction happens-before any concurrent access.
                continue
            visit(method, False)
        yield from findings


@register
class LockBlockingCallRule(Rule):
    """No sleeping / file / socket / subprocess calls while a lock is held."""

    id = "lock-blocking-call"
    summary = (
        "blocking call (sleep, file write/flush, socket op, os.replace, "
        "subprocess) inside a `with self.<lock>:` block"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for class_def in ast.walk(module.tree):
            if isinstance(class_def, ast.ClassDef):
                yield from self._check_class(module, class_def)

    def _check_class(
        self, module: ModuleInfo, class_def: ast.ClassDef
    ) -> Iterator[Finding]:
        lock_attrs = _lock_attrs(class_def)
        if not lock_attrs:
            return

        findings: List[Finding] = []

        def blocking_reason(call: ast.Call) -> str:
            callee = dotted_name(call.func)
            if callee in _BLOCKING_DOTTED or callee == "open":
                return f"`{callee}()`"
            if isinstance(call.func, ast.Attribute):
                method = call.func.attr
                if method in _BLOCKING_METHODS:
                    return f"`.{method}()`"
            return ""

        def visit(node: ast.AST, under_lock: bool) -> None:
            if isinstance(node, ast.With):
                locked = under_lock or any(
                    _is_lock_context(item, lock_attrs) for item in node.items
                )
                for item in node.items:
                    visit(item, under_lock)
                for statement in node.body:
                    visit(statement, locked)
                return
            if under_lock and isinstance(node, ast.Call):
                reason = blocking_reason(node)
                if reason:
                    findings.append(
                        self.finding(
                            module,
                            node,
                            f"{reason} can block while a lock is held; move "
                            f"the call outside the `with self.<lock>:` block",
                        )
                    )
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                under_lock = False
            for child in ast.iter_child_nodes(node):
                visit(child, under_lock)

        for method in _methods(class_def):
            visit(method, False)
        yield from findings
