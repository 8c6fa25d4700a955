"""The end-to-end two-phase synonym miner (paper Section III).

:class:`SynonymMiner` wires the three pieces together:

1. :class:`~repro.core.surrogates.SurrogateFinder` resolves each input
   string ``u`` to its surrogate pages ``G_A(u, P)``;
2. :class:`~repro.core.candidates.CandidateGenerator` collects every query
   whose clicks touch a surrogate (candidate generation);
3. :func:`~repro.core.selection.score_profile` /
   :class:`~repro.core.selection.CandidateSelector` compute IPC and ICR and
   keep the candidates clearing the β / γ thresholds (candidate selection).

The miner is deliberately *data-driven and offline*: its only inputs are
Search Data, Click Data and the list of canonical strings — it never looks
at the entity attributes or at any ground truth.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.clicklog.log import ClickLog, SearchLog
from repro.core.batch import mine_entity
from repro.core.config import MinerConfig
from repro.core.selection import CandidateSelector
from repro.core.surrogates import SurrogateFinder
from repro.core.types import EntitySynonyms, MiningResult
from repro.search.engine import SearchEngine
from repro.text.normalize import normalize

__all__ = ["SynonymMiner"]


class SynonymMiner:
    """Mines Web synonyms for a set of canonical entity strings.

    Parameters
    ----------
    search_log / engine:
        At least one source of Search Data ``A`` (see
        :class:`~repro.core.surrogates.SurrogateFinder`).
    click_log:
        Click Data ``L``.
    config:
        Thresholds; defaults to the paper's Table-I operating point.
    """

    def __init__(
        self,
        *,
        click_log: ClickLog,
        search_log: SearchLog | None = None,
        engine: SearchEngine | None = None,
        config: MinerConfig | None = None,
    ) -> None:
        self.config = config or MinerConfig()
        self.click_log = click_log
        self.surrogate_finder = SurrogateFinder(
            search_log=search_log, engine=engine, k=self.config.surrogate_k
        )
        self.selector = CandidateSelector(
            ipc_threshold=self.config.ipc_threshold,
            icr_threshold=self.config.icr_threshold,
        )

    # ------------------------------------------------------------------ #
    # Mining
    # ------------------------------------------------------------------ #

    def mine_one(self, value: str) -> EntitySynonyms:
        """Run both phases for a single input string ``u``."""
        canonical = normalize(value)
        return mine_entity(
            canonical,
            source=self.click_log,
            surrogates=self.surrogate_finder.surrogates(canonical),
            config=self.config,
            selector=self.selector,
        )

    def mine(self, values: Iterable[str]) -> MiningResult:
        """Run the miner over a whole input set U.

        This is the loop :class:`~repro.core.batch.BatchMiner` runs, over
        the same profile cache on the click log; use the batch miner itself
        for streaming and progress callbacks.
        """
        result = MiningResult()
        for value in values:
            result.add(self.mine_one(value))
        return result

    # ------------------------------------------------------------------ #
    # Re-thresholding without re-scoring
    # ------------------------------------------------------------------ #

    def reselect(
        self, result: MiningResult, *, ipc_threshold: int, icr_threshold: float
    ) -> MiningResult:
        """Re-apply different β / γ to an existing scored result.

        Scoring every candidate is the expensive part; the parameter sweeps
        of Figures 2 and 3 only change thresholds, so they reuse the scored
        candidates and re-filter.  The input result is not modified.
        """
        selector = CandidateSelector(
            ipc_threshold=ipc_threshold, icr_threshold=icr_threshold
        )
        reselected = MiningResult()
        for entry in result:
            reselected.add(
                EntitySynonyms(
                    canonical=entry.canonical,
                    surrogates=entry.surrogates,
                    candidates=list(entry.candidates),
                    selected=selector.select(entry.candidates),
                )
            )
        return reselected

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def publish(
        self,
        result: MiningResult,
        catalog,
        path,
        *,
        include_canonical: bool = True,
        include_priors: bool = True,
        version: str = "1",
    ):
        """Compile *result* into a serving artifact at *path*.

        This is the publish hook of the mine → compile → serve pipeline:
        the mining result is flattened into a
        :class:`~repro.matching.dictionary.SynonymDictionary` against
        *catalog* (an :class:`~repro.simulation.catalog.EntityCatalog`) and
        frozen with :func:`~repro.serving.artifact.compile_dictionary`,
        stamping this miner's config fingerprint into the manifest.  With
        *include_priors* (the default) the miner's click log is folded into
        the artifact as per-entity click-volume priors, so a downstream
        :class:`~repro.matching.resolver.MatchResolver` ranks ambiguous
        matches without the log.  Returns the written
        :class:`~repro.storage.artifact.ArtifactManifest`.
        """
        # Imported lazily: serving sits above core in the layering.
        from repro.matching.dictionary import SynonymDictionary
        from repro.serving.artifact import compile_dictionary

        dictionary = SynonymDictionary.from_mining_result(
            result, catalog, include_canonical=include_canonical
        )
        return compile_dictionary(
            dictionary,
            path,
            version=version,
            config_fingerprint=self.config.fingerprint(),
            click_log=self.click_log if include_priors else None,
        )


def mine_synonyms(
    values: Sequence[str],
    *,
    click_log: ClickLog,
    search_log: SearchLog | None = None,
    engine: SearchEngine | None = None,
    config: MinerConfig | None = None,
) -> MiningResult:
    """Functional one-call façade over :class:`SynonymMiner`."""
    miner = SynonymMiner(
        click_log=click_log, search_log=search_log, engine=engine, config=config
    )
    return miner.mine(values)
