"""The end-to-end two-phase synonym miner (paper Section III).

:func:`mine_entity` runs both phases for one input string ``u``:

1. its surrogate pages ``G_A(u, P)`` are the top k of its Search Data
   (Eq. 1, :meth:`SynonymMiner.surrogates`);
2. one walk over the surrogates' reverse click edges
   (:meth:`~repro.clicklog.log.ClickLog.intersecting`) generates every
   candidate and sums its IPC and ICR numerator on the way;
3. :func:`~repro.core.selection.select` keeps the candidates clearing the
   β / γ thresholds (candidate selection).

k, β and γ are read from the miner's
:class:`~repro.core.config.MinerConfig` and nowhere else.

About one scored candidate in twelve is selected, so the scores are kept
as plain rows, sorted once and stored as one
:class:`~repro.core.types.ScoredCandidates` record of columns per entity;
a :class:`~repro.core.types.SynonymCandidate` object is built only for a
selected candidate, or when a reader indexes or iterates the record.

The miner is deliberately *data-driven and offline*: its only inputs are
Search Data, Click Data and the list of canonical strings — it never looks
at the entity attributes or at any ground truth.

Every mining job — :meth:`SynonymMiner.mine`, :meth:`SynonymMiner.mine_iter`,
the incremental miner's refresh — is the one :func:`mine_entity` loop over
the live click log, and nothing is kept between entities.  Results are
deterministic: every scored record is fully sorted by ``(clicks desc,
query asc)`` and all ICR arithmetic is an integer sum over an integer total.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, Sequence

from repro.clicklog.log import ClickLog, SearchLog
from repro.core.config import MinerConfig
from repro.core.selection import select
from repro.core.types import EntitySynonyms, MiningResult, ScoredCandidates
from repro.text.normalize import normalize

__all__ = ["mine_entity", "SynonymMiner"]


def mine_entity(
    canonical: str,
    *,
    source: ClickLog,
    surrogates: Sequence[str],
    config: MinerConfig,
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
    found = source.intersecting(dict.fromkeys(surrogates))
    found.pop(canonical, None)
    total_clicks = source.total_clicks
    rows = []
    for query, (ipc, inside) in found.items():
        total = total_clicks(query)
        rows.append((-total, query, ipc, inside / total if total else 0.0, total))
    # Queries are distinct, so the sort never compares past the query.
    rows.sort()
    if rows:
        _, queries, ipcs, icrs, clicks = zip(*rows)
    else:
        queries = ipcs = icrs = clicks = ()
    return EntitySynonyms(
        canonical=canonical,
        surrogates=tuple(surrogates),
        candidates=ScoredCandidates(
            queries, array("q", ipcs), array("d", icrs), array("q", clicks)
        ),
        # Selected from the row tuples, whose values are already objects.
        selected=select(config, queries, ipcs, icrs, clicks),
    )


class SynonymMiner:
    """Mines Web synonyms for a set of canonical entity strings.

    Parameters
    ----------
    search_log:
        Search Data ``A``: the replayable record of what the search API
        returned for each input string; required.
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
        self.search_log = search_log

    # ------------------------------------------------------------------ #
    # Mining
    # ------------------------------------------------------------------ #

    def surrogates(self, canonical: str) -> tuple[str, ...]:
        """``G_A(u, P)`` (Eq. 1): the top-k Search Data URLs of an
        already-normalized string, best-ranked first; empty for a string
        that was never materialised into Search Data.  A surrogate is a page
        that represents the entity ``u`` describes (Definition 5)."""
        return tuple(self.search_log.top_urls(canonical, k=self.config.surrogate_k))

    def _mine_canonical(self, canonical: str) -> EntitySynonyms:
        return mine_entity(
            canonical,
            source=self.click_log,
            surrogates=self.surrogates(canonical),
            config=self.config,
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

    def reselect(self, result: MiningResult, config: MinerConfig) -> MiningResult:
        """Re-apply *config*'s β / γ to an existing scored result.

        Scoring every candidate is the expensive part; the parameter sweeps
        of Figures 2 and 3 only change thresholds, so they reuse the scored
        candidates and re-filter.  The scores depend on k, so *config* must
        keep this miner's ``surrogate_k``.  Nothing modifies a
        :class:`ScoredCandidates` record once it is built, so the new entry
        shares it and only the new selection is built as objects.  The
        input result is not modified.
        """
        if config.surrogate_k != self.config.surrogate_k:
            raise ValueError(
                f"reselect keeps the scores of surrogate_k={self.config.surrogate_k}, "
                f"got a config with surrogate_k={config.surrogate_k}"
            )
        reselected = MiningResult()
        for entry in result:
            scored = entry.candidates
            reselected.add(
                EntitySynonyms(
                    canonical=entry.canonical,
                    surrogates=entry.surrogates,
                    candidates=scored,
                    selected=select(config, scored.queries, scored.ipc, scored.icr, scored.clicks),
                )
            )
        return reselected
