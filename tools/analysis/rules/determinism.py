"""Determinism: seed-pure modules must stay pure functions of the seed.

Scenario workloads (``repro.scenarios.workload`` / ``spec``) promise
byte-identical streams for a seed, and the compile/delta paths
(``repro.serving.artifact`` / ``delta``) promise content-hash-identical
artifacts for the same logical state — both are pinned by fingerprint
tests.  Wall clocks, unseeded RNGs, ``os.urandom``, the per-process
salted builtin ``hash()`` and bare ``set`` iteration order all break
those promises silently; these rules ban them at the source level inside
the scoped modules only (the daemon and experiment runner measure real
time on purpose and are out of scope).
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.analysis.engine import Finding, ModuleInfo, Rule, register
from tools.analysis.rules._common import dotted_name

__all__ = ["NondeterministicCallRule", "UnorderedSetIterationRule", "DETERMINISM_MODULES"]

# The seed-pure surface.  Everything else may read clocks and entropy.
DETERMINISM_MODULES = frozenset(
    {
        "repro.scenarios.workload",
        "repro.scenarios.spec",
        "repro.serving.artifact",
        "repro.serving.delta",
    }
)

_BANNED_CALLS = {
    "datetime.datetime.now": "wall-clock timestamp",
    "datetime.datetime.today": "wall-clock timestamp",
    "datetime.datetime.utcnow": "wall-clock timestamp",
    "datetime.now": "wall-clock timestamp",
    "datetime.today": "wall-clock timestamp",
    "datetime.utcnow": "wall-clock timestamp",
    "os.urandom": "OS entropy",
    "time.monotonic": "wall-clock timestamp",
    "time.monotonic_ns": "wall-clock timestamp",
    "time.perf_counter": "wall-clock timestamp",
    "time.time": "wall-clock timestamp",
    "time.time_ns": "wall-clock timestamp",
    "uuid.uuid1": "host/time-derived id",
    "uuid.uuid4": "OS entropy",
}


def _in_scope(module: ModuleInfo) -> bool:
    return module.module in DETERMINISM_MODULES


@register
class NondeterministicCallRule(Rule):
    """Ban clocks, entropy, unseeded RNGs and builtin hash() in scope."""

    id = "nondeterministic-call"
    summary = (
        "clock/entropy/unseeded-RNG/builtin-hash call inside a seed-pure "
        "module (scenarios workload+spec, serving compile/delta paths)"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not _in_scope(module):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = dotted_name(node.func)
            if callee in _BANNED_CALLS:
                yield self.finding(
                    module,
                    node,
                    f"`{callee}()` is {_BANNED_CALLS[callee]}; seed-pure "
                    f"modules must derive everything from the scenario seed",
                )
            elif callee == "random.Random" and not (node.args or node.keywords):
                yield self.finding(
                    module,
                    node,
                    "unseeded `random.Random()`; seed it from the scenario "
                    'seed (e.g. `random.Random(f"{seed}:purpose")`)',
                )
            elif callee == "random.SystemRandom":
                yield self.finding(
                    module,
                    node,
                    "`random.SystemRandom` draws OS entropy and cannot be "
                    "seeded; use a string-seeded `random.Random`",
                )
            elif callee.startswith("random.") and callee != "random.Random":
                yield self.finding(
                    module,
                    node,
                    f"module-level `{callee}()` uses the shared global RNG; "
                    f"use a string-seeded `random.Random` instance",
                )
            elif callee == "hash":
                yield self.finding(
                    module,
                    node,
                    "builtin `hash()` is salted per process "
                    "(PYTHONHASHSEED); use hashlib for anything persisted "
                    "or fingerprinted",
                )


def _is_bare_set(node: ast.AST) -> bool:
    """Set literal / set comprehension / `set(...)` call (not sorted)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"set", "frozenset"}
    )


@register
class UnorderedSetIterationRule(Rule):
    """Iterating a bare set feeds arbitrary order into output sequences."""

    id = "unordered-set-iteration"
    summary = (
        "iteration over a bare set (literal, comprehension or set() call) "
        "in a seed-pure module; wrap in sorted(...)"
    )

    _MESSAGE = (
        "iteration order over a set is arbitrary and leaks into the output "
        "sequence; wrap the set in `sorted(...)`"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not _in_scope(module):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.For) and _is_bare_set(node.iter):
                yield self.finding(module, node.iter, self._MESSAGE)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for generator in node.generators:
                    if _is_bare_set(generator.iter):
                        yield self.finding(module, generator.iter, self._MESSAGE)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in {"list", "tuple"}
                and len(node.args) == 1
                and _is_bare_set(node.args[0])
            ):
                yield self.finding(module, node.args[0], self._MESSAGE)
