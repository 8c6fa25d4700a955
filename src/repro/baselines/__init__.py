"""The baseline synonym finders of Table I (Section IV-B).

* :mod:`repro.baselines.wikipedia` — synonyms harvested from (simulated)
  Wikipedia redirect/disambiguation pages;
* :mod:`repro.baselines.randomwalk` — the "Walk(0.8)" row of Table I: a
  lazy random walk on the query–URL click graph (Craswell & Szummer 2007,
  as used by Fuxman et al. 2008 for keyword generation).

Every baseline returns the same :class:`~repro.core.types.MiningResult`
shape as the core miner so the evaluation treats all methods uniformly.
"""

from repro.baselines.wikipedia import WikipediaSynonymFinder
from repro.baselines.randomwalk import RandomWalkSynonymFinder

__all__ = [
    "WikipediaSynonymFinder",
    "RandomWalkSynonymFinder",
]
