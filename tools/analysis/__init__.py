"""Project-specific static analysis: the invariants CI enforces mechanically.

The serving stack encodes several correctness rules purely by convention —
snapshot-consistent reads under ``MatchService._lock``, seed-pure workload
generators, explicit-endian packed blocks, fsync'd ``os.replace``
publishes, ``adopt()``-scoped mmap views.  PRs 5–7 each spent review time
on violations (torn ``/stats`` reads, NTP-sensitive uptime) that a checker
would have flagged immediately.  This package is that checker:

* :mod:`tools.analysis.engine` — the AST walker, rule registry,
  ``# repro: allow(<rule>)`` suppressions and ``ModuleInfo`` parsing;
* :mod:`tools.analysis.rules` — the four rule families (lock discipline,
  determinism, artifact safety, mmap lifetime).

It is a developer tool, not part of the ``repro`` package, and imports
nothing from it.  Run it from the repository root as
``python -m tools.analysis [PATH ...]`` (default ``src``; exit 0 when
clean, 1 on findings).  The suite is self-hosting: ``python -m
tools.analysis src tools`` must stay clean, and ``tests/analysis`` pins
each rule against a committed fixture corpus.  Rule catalog and
rationale: ``docs/STATIC_ANALYSIS.md``.
"""

from tools.analysis.engine import (
    Finding,
    ModuleInfo,
    Rule,
    analyze_paths,
    analyze_source,
    registered_rules,
)

__all__ = [
    "Finding",
    "ModuleInfo",
    "Rule",
    "analyze_paths",
    "analyze_source",
    "registered_rules",
]
