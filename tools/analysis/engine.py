"""Analysis engine: module parsing, rule registry, suppressions, driver.

A *rule* is a class with a stable kebab-case ``id`` and a ``check()``
method that walks one parsed module and yields :class:`Finding` objects.
Rules register themselves with :func:`register` at import time;
:func:`registered_rules` imports :mod:`tools.analysis.rules` so the full
catalog is always loaded before a run.

Suppressions are source comments, scoped to a single rule and a single
line (the comment's own line, or the statement directly below a
stand-alone comment)::

    self._view = block.cast("I")  # repro: allow(mmap-view-escape) reason

    # repro: allow(lock-blocking-call) whole-line append is the point
    self._stream.write(line)

Fixture files (which live under ``tests/``, outside the real package
tree) opt into module-scoped rules with a ``# repro: module(<dotted>)``
pragma anywhere in the file; real sources derive their module name from
their path relative to ``src/``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from importlib.util import decode_source
from pathlib import Path
from typing import Dict, Iterable, Iterator, Sequence, Tuple, Type

__all__ = [
    "Finding",
    "ModuleInfo",
    "Rule",
    "analyze_paths",
    "analyze_source",
    "iter_python_files",
    "register",
    "registered_rules",
]

PARSE_ERROR_RULE = "parse-error"

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\(([a-z][a-z0-9-]*)\)")
_MODULE_RE = re.compile(r"#\s*repro:\s*module\(([A-Za-z_][A-Za-z0-9_.]*)\)")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        """Render as the conventional ``path:line:col: rule: message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


def _derive_module(path: Path, source: str) -> str:
    """Dotted module name for *path* (pragma wins, then src/ layout)."""
    pragma = _MODULE_RE.search(source)
    if pragma:
        return pragma.group(1)
    parts = list(path.with_suffix("").parts)
    anchor = -1
    for index, part in enumerate(parts):
        if part == "src":
            anchor = index
    if anchor >= 0:
        parts = parts[anchor + 1 :]
    elif "repro" in parts:
        parts = parts[parts.index("repro") :]
    else:
        return path.stem
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _collect_allows(source: str) -> Dict[int, frozenset]:
    """Map line number -> rule ids suppressed by a comment on that line."""
    allows: Dict[int, frozenset] = {}
    for number, text in enumerate(source.splitlines(), start=1):
        rules = _ALLOW_RE.findall(text)
        if rules:
            allows[number] = frozenset(rules)
    return allows


@dataclass
class ModuleInfo:
    """One parsed source file plus everything rules need to judge it."""

    path: Path
    source: str
    tree: ast.Module
    module: str
    allows: Dict[int, frozenset]

    @classmethod
    def parse(cls, path: str | Path, source: str | None = None) -> "ModuleInfo":
        """Parse *path* (or the given *source*) into a ``ModuleInfo``.

        A file is decoded as Python decodes it: its PEP 263 coding cookie,
        else UTF-8.  Raises :class:`SyntaxError` or
        :class:`UnicodeDecodeError` on input Python could not run; the
        driver turns either into a ``parse-error`` finding so one broken
        file cannot hide the rest of a run.
        """
        path = Path(path)
        if source is None:
            source = decode_source(path.read_bytes())
        tree = ast.parse(source, filename=str(path))
        return cls(
            path=path,
            source=source,
            tree=tree,
            module=_derive_module(path, source),
            allows=_collect_allows(source),
        )

    def is_allowed(self, rule: str, line: int) -> bool:
        """True when *rule* is suppressed at *line* (same line or above)."""
        return rule in self.allows.get(line, ()) or rule in self.allows.get(
            line - 1, ()
        )


class Rule:
    """Base class for one checker.  Subclass, set ``id``, implement check.

    ``id`` is the stable kebab-case name used in findings, suppression
    comments and reports; ``summary`` is the one-liner shown by
    ``python -m tools.analysis --list-rules``.
    """

    id: str = ""
    summary: str = ""

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleInfo, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at *node*'s source location."""
        return Finding(
            path=str(module.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.id,
            message=message,
        )


_REGISTRY: Dict[str, Rule] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate and register a rule by its id."""
    rule = rule_cls()
    if not rule.id:
        raise ValueError(f"rule {rule_cls.__name__} has no id")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    _REGISTRY[rule.id] = rule
    return rule_cls


def registered_rules() -> Tuple[Rule, ...]:
    """Every registered rule, id-sorted (imports the rule catalog)."""
    import tools.analysis.rules  # noqa: F401  (registers on import)

    return tuple(_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY))


def iter_python_files(paths: Sequence[str | Path]) -> Iterator[Path]:
    """Expand *paths* (files or directories) into unique ``.py`` files."""
    seen = set()
    for raw in paths:
        path = Path(raw)
        candidates = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def analyze_source(
    source: str,
    *,
    path: str | Path,
    rules: Iterable[Rule] | None = None,
) -> list:
    """Run *rules* over one source string; suppressed findings dropped."""
    return _analyze(path, source, registered_rules() if rules is None else tuple(rules))


def _analyze(path: str | Path, source: str | None, rules: Sequence[Rule]) -> list:
    """Check one module, read from *path* when *source* is None."""
    try:
        module = ModuleInfo.parse(path, source)
    except SyntaxError as exc:
        return [_parse_error(path, exc.lineno or 1, (exc.offset or 1) - 1, exc.msg)]
    except UnicodeDecodeError as exc:
        line = exc.object[: exc.start].count(b"\n") + 1
        return [_parse_error(path, line, 0, str(exc))]
    findings = []
    for rule in rules:
        for found in rule.check(module):
            if not module.is_allowed(found.rule, found.line):
                findings.append(found)
    return findings


def analyze_paths(
    paths: Sequence[str | Path],
    *,
    rules: Iterable[Rule] | None = None,
) -> list:
    """Analyze every ``.py`` file reachable from *paths*, sorted findings."""
    rules = registered_rules() if rules is None else tuple(rules)
    findings = []
    for file in iter_python_files(paths):
        findings.extend(_analyze(file, None, rules))
    findings.sort()
    return findings


def _parse_error(path: str | Path, line: int, col: int, reason: str) -> Finding:
    return Finding(
        path=str(path),
        line=line,
        col=col,
        rule=PARSE_ERROR_RULE,
        message=f"cannot parse file: {reason}",
    )
