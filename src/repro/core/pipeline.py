"""The end-to-end two-phase synonym miner (paper Section III).

:func:`mine_entity` runs both phases for one input string ``u``:

1. its surrogate pages ``G_A(u, P)`` come from
   :class:`~repro.core.surrogates.SurrogateFinder` (Eq. 1);
2. one walk over the surrogates' reverse click edges
   (:meth:`~repro.clicklog.log.ClickLog.intersecting`) generates every
   candidate and sums its IPC and ICR numerator on the way;
3. :class:`~repro.core.selection.CandidateSelector` keeps the candidates
   clearing the β / γ thresholds (candidate selection).

The miner is deliberately *data-driven and offline*: its only inputs are
Search Data, Click Data and the list of canonical strings — it never looks
at the entity attributes or at any ground truth.

Every mining job — :meth:`SynonymMiner.mine`, :meth:`SynonymMiner.mine_iter`,
the incremental miner's refresh — is the one :func:`mine_entity` loop over
the live click log, and nothing is kept between entities.  Results are
deterministic: every scored list is fully sorted by ``(clicks desc, query
asc)`` and all ICR arithmetic is an integer sum over an integer total.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.clicklog.log import ClickLog, SearchLog
from repro.core.config import MinerConfig
from repro.core.selection import CandidateSelector
from repro.core.surrogates import SurrogateFinder
from repro.core.types import EntitySynonyms, MiningResult, SynonymCandidate
from repro.text.normalize import normalize

__all__ = ["mine_entity", "SynonymMiner"]


def mine_entity(
    canonical: str,
    *,
    source: ClickLog,
    surrogates: Sequence[str],
    config: MinerConfig,
    selector: CandidateSelector | None = None,
) -> EntitySynonyms:
    """Run both mining phases for one already-normalized input string.

    Candidate generation (Definition 6): every query whose clicks land on at
    least one surrogate is a Web-synonym candidate,

        W'_u = { w' | G_A(u,P) ∩ G_L(w',P) ≠ ∅ }

    except ``u`` itself, which trivially satisfies the definition but is not
    a useful synonym of itself.  IPC (Eq. 3) and the numerator of ICR (Eq. 4)
    are sums over the same surrogate URLs, so the walk that finds each
    candidate also scores it; ICR divides by the candidate's total clicks.
    The cost is the click traffic of the surrogate pages, not the size of
    the log.

    This is the one implementation behind :class:`SynonymMiner` and, through
    it, :meth:`IncrementalSynonymMiner.refresh`.
    """
    if selector is None:
        selector = CandidateSelector(
            ipc_threshold=config.ipc_threshold, icr_threshold=config.icr_threshold
        )
    found = source.intersecting(dict.fromkeys(surrogates))
    found.pop(canonical, None)
    total_clicks = source.total_clicks
    scored = []
    for query, (ipc, inside) in found.items():
        total = total_clicks(query)
        scored.append(SynonymCandidate(query, ipc, inside / total if total else 0.0, total))
    scored.sort(key=lambda candidate: (-candidate.clicks, candidate.query))
    selected = selector.select(scored)
    return EntitySynonyms(
        canonical=canonical,
        surrogates=tuple(surrogates),
        candidates=scored,
        selected=selected,
    )


class SynonymMiner:
    """Mines Web synonyms for a set of canonical entity strings.

    Parameters
    ----------
    search_log:
        Search Data ``A`` (see :class:`~repro.core.surrogates.SurrogateFinder`);
        required.
    click_log:
        Click Data ``L``.  It is read in place, so do not ``add()`` to it
        while a :meth:`mine_iter` is being consumed.
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
        for canonical in dict.fromkeys(normalize(value) for value in values):
            yield self._mine_canonical(canonical)

    def mine(self, values: Iterable[str]) -> MiningResult:
        """Run the miner over a whole input set U and collect the result."""
        result = MiningResult()
        for entry in self.mine_iter(values):
            result.add(entry)
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
