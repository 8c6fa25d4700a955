"""The paper's core contribution: mining entity synonyms from Web logs.

The public surface of this package is:

* :class:`~repro.core.config.MinerConfig` — the paper's three parameters
  (top-k, β for IPC, γ for ICR), defined and checked there only;
* :class:`~repro.core.pipeline.SynonymMiner` — the two-phase bottom-up
  algorithm: :func:`~repro.core.pipeline.mine_entity` generates and scores
  the candidates in one walk, then selects;
* :class:`~repro.core.types.SynonymCandidate` / ``ScoredCandidates`` /
  ``MiningResult`` — one scored candidate, an entity's scored candidates
  as columns, and the per-entity results;
* Eq. 3 and Eq. 4 as written (:mod:`~repro.core.selection`).
"""

from repro.core.config import MinerConfig
from repro.core.types import SynonymCandidate, ScoredCandidates, EntitySynonyms, MiningResult
from repro.core.selection import intersecting_page_count, intersecting_click_ratio
from repro.core.pipeline import SynonymMiner, mine_entity
from repro.core.incremental import IncrementalSynonymMiner

__all__ = [
    "mine_entity",
    "MinerConfig",
    "SynonymCandidate",
    "ScoredCandidates",
    "EntitySynonyms",
    "MiningResult",
    "intersecting_page_count",
    "intersecting_click_ratio",
    "SynonymMiner",
    "IncrementalSynonymMiner",
]
