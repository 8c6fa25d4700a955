"""repro — reproduction of "Fuzzy Matching of Web Queries to Structured Data".

Cheng, Lauw, Paparizos (ICDE 2010) mine search-engine query and click logs
to expand canonical entity strings ("Indiana Jones and the Kingdom of the
Crystal Skull") with the informal synonyms users actually type ("Indy 4"),
so that live Web queries can be matched to structured data.

Top-level packages:

* :mod:`repro.core`        — the two-phase miner (surrogates → candidates →
  IPC/ICR selection), the paper's contribution;
* :mod:`repro.matching`    — the online fuzzy query-to-entity matcher built
  on the mined dictionary;
* :mod:`repro.serving`     — compiled dictionary artifacts and the hot-swappable
  match service (the mine → compile → serve pipeline);
* :mod:`repro.clicklog`, :mod:`repro.storage`, :mod:`repro.text` — the
  substrates (click logs, persistence, text processing);
* :mod:`repro.simulation`, :mod:`repro.search` — synthetic stand-ins for
  the proprietary inputs (Bing logs and search API, catalogs, Wikipedia);
* :mod:`repro.baselines`   — the Wikipedia-redirect and random-walk
  baselines of Table I;
* :mod:`repro.eval`        — metrics and the one sweep behind Figure 2,
  Figure 3, Table I, the ablations and the log-volume sweep.

The last four packages exist to produce the paper's tables; nothing the
miner, the compiler or the daemon imports depends on them (or on numpy).

Quickstart::

    from repro.simulation import ScenarioConfig, build_world
    from repro.core import SynonymMiner, MinerConfig

    world = build_world(ScenarioConfig.toy())
    miner = SynonymMiner(click_log=world.click_log,
                         search_log=world.search_log,
                         config=MinerConfig.paper_default())
    result = miner.mine(world.canonical_queries())
    print(result.as_dictionary())
"""

from repro.core import MinerConfig, SynonymMiner, MiningResult, SynonymCandidate
from repro.matching import QueryMatcher, SynonymDictionary
from repro.serving import MatchService, SynonymArtifact, compile_dictionary

__version__ = "1.1.0"

__all__ = [
    "MinerConfig",
    "SynonymMiner",
    "MiningResult",
    "SynonymCandidate",
    "QueryMatcher",
    "SynonymDictionary",
    "MatchService",
    "SynonymArtifact",
    "compile_dictionary",
    "__version__",
]
