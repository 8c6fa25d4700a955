"""Serving layer: compiled dictionary artifacts, deltas and the match service.

The offline miner produces a :class:`~repro.core.types.MiningResult`; the
online matcher needs a fast, immutable index.  This package is the bridge —
the mine → **compile** → **serve** half of the pipeline:

* :func:`~repro.serving.artifact.compile_dictionary` freezes dictionary
  entries (built by :mod:`repro.matching.index`) into a single versioned
  artifact file; :class:`~repro.serving.artifact.SynonymArtifact`
  cold-loads that file with one read and serves the full
  :class:`~repro.matching.index.DictionaryIndex` protocol straight from the
  packed arrays, materializing entries lazily.
* :mod:`repro.serving.delta` is the incremental publish path: a small
  **delta sidecar** carries only the entities that changed since a base
  artifact, and applying it reproduces a full compile exactly (chain
  verification by state hash).
* :class:`~repro.serving.service.MatchService` owns an artifact, memoizes
  results in an LRU keyed on the normalized query, matches batches, ranks
  ambiguous matches over the artifact's embedded click priors
  (``resolve()``), and hot-swaps via ``reload()`` / ``maybe_reload()`` —
  preferring an in-memory delta apply over a full cold load when a sidecar
  is published.  All of it is thread-safe, so the :mod:`repro.server`
  daemon drives one service from many request threads.

The on-disk formats (container framing, manifest fields, block layouts 2 and 3,
hashes, compatibility matrix) are specified normatively in
``docs/ARTIFACT_FORMAT.md`` — module docstrings here only summarize.

CLI: ``python -m repro compile`` produces artifacts (``--priors`` embeds
click priors, ``--delta BASE`` emits a sidecar), ``delta-apply`` merges a
sidecar into its base offline, ``server`` answers queries from one
(following republications and deltas), and ``match --artifact`` uses one
for ad-hoc matching.
"""

from repro.serving.artifact import (
    ARTIFACT_KIND,
    SynonymArtifact,
    compile_dictionary,
    dedupe_entries,
    state_hash,
)
from repro.serving.delta import (
    DELTA_KIND,
    DictionaryDelta,
    apply_delta,
    delta_path_for,
    diff_delta,
)
from repro.serving.service import MatchService, ServiceStats

__all__ = [
    "ARTIFACT_KIND",
    "DELTA_KIND",
    "SynonymArtifact",
    "DictionaryDelta",
    "compile_dictionary",
    "dedupe_entries",
    "state_hash",
    "apply_delta",
    "delta_path_for",
    "diff_delta",
    "MatchService",
    "ServiceStats",
]
