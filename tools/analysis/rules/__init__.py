"""The rule catalog.  Importing this package registers every rule.

Four families, seven rules:

* :mod:`~tools.analysis.rules.locks` — ``lock-guarded-attr``,
  ``lock-blocking-call``;
* :mod:`~tools.analysis.rules.determinism` — ``nondeterministic-call``,
  ``unordered-set-iteration``;
* :mod:`~tools.analysis.rules.artifact_safety` — ``explicit-endian``,
  ``artifact-write-path``;
* :mod:`~tools.analysis.rules.mmap_lifetime` — ``mmap-view-escape``.

Adding a rule: write a :class:`~tools.analysis.engine.Rule` subclass in
the matching family module (or a new one), decorate it with
:func:`~tools.analysis.engine.register`, import the module here, add
positive + negative fixtures under ``tests/analysis/fixtures/`` and a
catalog entry in ``docs/STATIC_ANALYSIS.md``.
"""

from tools.analysis.rules import (  # noqa: F401  (import registers rules)
    artifact_safety,
    determinism,
    locks,
    mmap_lifetime,
)

__all__ = ["artifact_safety", "determinism", "locks", "mmap_lifetime"]
