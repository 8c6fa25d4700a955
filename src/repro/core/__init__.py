"""The paper's core contribution: mining entity synonyms from Web logs.

The public surface of this package is:

* :class:`~repro.core.config.MinerConfig` — the paper's three parameters
  (top-k, β for IPC, γ for ICR);
* :class:`~repro.core.pipeline.SynonymMiner` — the two-phase bottom-up
  algorithm: :func:`~repro.core.pipeline.mine_entity` generates and scores
  the candidates in one walk, then selects;
* :class:`~repro.core.types.SynonymCandidate` / ``MiningResult`` — the
  scored candidates and the per-entity results;
* the lower-level pieces (:mod:`~repro.core.surrogates`,
  :mod:`~repro.core.selection`) for callers who want to run or ablate a
  single phase.
"""

from repro.core.config import MinerConfig
from repro.core.types import SynonymCandidate, EntitySynonyms, MiningResult
from repro.core.surrogates import SurrogateFinder
from repro.core.selection import CandidateSelector, intersecting_page_count, intersecting_click_ratio
from repro.core.pipeline import SynonymMiner, mine_entity
from repro.core.incremental import IncrementalSynonymMiner

__all__ = [
    "mine_entity",
    "MinerConfig",
    "SynonymCandidate",
    "EntitySynonyms",
    "MiningResult",
    "SurrogateFinder",
    "CandidateSelector",
    "intersecting_page_count",
    "intersecting_click_ratio",
    "SynonymMiner",
    "IncrementalSynonymMiner",
]
