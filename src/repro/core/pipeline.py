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

High-volume candidate queries recur across thousands of entities, so
:class:`~repro.clicklog.log.ClickLog` caches each candidate's
``(clicked_urls, total_clicks, clicks_by_url)`` profile and every mining
job — :meth:`SynonymMiner.mine`, :meth:`SynonymMiner.mine_iter`, the
incremental miner's refresh — is the one :func:`mine_entity` loop over it.
Results are deterministic: every scored list is fully sorted by
``(clicks desc, query asc)`` and all ICR arithmetic is integer sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.clicklog.log import CacheStats, ClickLog, SearchLog
from repro.core.candidates import CandidateGenerator
from repro.core.config import MinerConfig
from repro.core.selection import CandidateSelector, score_profile
from repro.core.surrogates import SurrogateFinder
from repro.core.types import EntitySynonyms, MiningResult
from repro.text.normalize import normalize

__all__ = ["mine_entity", "BatchRunStats", "SynonymMiner"]


def mine_entity(
    canonical: str,
    *,
    source: ClickLog,
    surrogates: Sequence[str],
    config: MinerConfig,
    selector: CandidateSelector | None = None,
) -> EntitySynonyms:
    """Run both mining phases for one already-normalized input string.

    This is the one implementation behind :class:`SynonymMiner` and, through
    it, :meth:`IncrementalSynonymMiner.refresh`.
    """
    if selector is None:
        selector = CandidateSelector(
            ipc_threshold=config.ipc_threshold, icr_threshold=config.icr_threshold
        )
    surrogate_set = set(surrogates)
    candidates = CandidateGenerator(source).candidates_for(canonical, surrogate_set)
    scored = [
        score_profile(source.candidate_profile(candidate), surrogate_set)
        for candidate in candidates
    ]
    scored.sort(key=lambda candidate: (-candidate.clicks, candidate.query))
    selected = selector.select(scored)
    return EntitySynonyms(
        canonical=canonical,
        surrogates=tuple(surrogates),
        candidates=scored,
        selected=selected,
    )


@dataclass(frozen=True)
class BatchRunStats:
    """Summary of the last completed :meth:`SynonymMiner.mine_iter` run."""

    entities: int
    cache: CacheStats


class SynonymMiner:
    """Mines Web synonyms for a set of canonical entity strings.

    Parameters
    ----------
    search_log:
        Search Data ``A`` (see :class:`~repro.core.surrogates.SurrogateFinder`);
        required.
    click_log:
        Click Data ``L``.  It is read in place, so do not ``add()`` to it
        while a :meth:`mine_iter` is being consumed; the profile cache lives
        on it and outlives this miner.
    config:
        Thresholds; defaults to the paper's Table-I operating point.
    """

    def __init__(
        self,
        *,
        click_log: ClickLog,
        search_log: SearchLog | None = None,
        config: MinerConfig | None = None,
    ) -> None:
        if search_log is None:
            # Without Search Data every entity would silently mine to nothing.
            raise ValueError("no Search Data: provide a search_log")
        self.config = config or MinerConfig()
        self.click_log = click_log
        self.surrogate_finder = SurrogateFinder(
            search_log=search_log, k=self.config.surrogate_k
        )
        self.selector = CandidateSelector(
            ipc_threshold=self.config.ipc_threshold,
            icr_threshold=self.config.icr_threshold,
        )
        self._last_run_stats: BatchRunStats | None = None

    # ------------------------------------------------------------------ #
    # Mining
    # ------------------------------------------------------------------ #

    def _mine_canonical(self, canonical: str) -> EntitySynonyms:
        return mine_entity(
            canonical,
            source=self.click_log,
            surrogates=self.surrogate_finder.for_canonical(canonical),
            config=self.config,
            selector=self.selector,
        )

    def mine_one(self, value: str) -> EntitySynonyms:
        """Run both phases for a single input string ``u``."""
        return self._mine_canonical(normalize(value))

    def mine_iter(self, values: Iterable[str]) -> Iterator[EntitySynonyms]:
        """Stream one result per canonical, in input order, as it is mined.

        *values* are normalized and deduplicated once (first occurrence
        wins), so duplicate raw values yield once, exactly as they collapse
        onto one key in a :class:`MiningResult`.  Consumers can write results
        out incrementally without holding a whole catalog's result.
        """
        canonicals = list(dict.fromkeys(normalize(value) for value in values))
        stats_before = self.click_log.cache_stats
        for canonical in canonicals:
            yield self._mine_canonical(canonical)
        self._last_run_stats = BatchRunStats(
            entities=len(canonicals),
            cache=self.click_log.cache_stats - stats_before,
        )

    def mine(self, values: Iterable[str]) -> MiningResult:
        """Run the miner over a whole input set U and collect the result."""
        result = MiningResult()
        for entry in self.mine_iter(values):
            result.add(entry)
        return result

    @property
    def last_run_stats(self) -> BatchRunStats | None:
        """Entities mined and the click log's cache-counter movement during
        the most recently *completed* :meth:`mine` / :meth:`mine_iter` run."""
        return self._last_run_stats

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
