"""Candidate selection: IPC, ICR and thresholding (paper Section III-B).

Two measures estimate how likely a candidate ``w'`` is a Web synonym of the
input value ``u``:

* **Intersecting Page Count** (Eq. 3) — the *strength* of the relationship:

      IPC(w', u) = |G_L(w', P) ∩ G_A(u, P)|

* **Intersecting Click Ratio** (Eq. 4) — the *exclusiveness* of the
  relationship: the fraction of all clicks issued from ``w'`` that land
  inside the intersection:

      ICR(w', u) = Σ_{l.p ∈ G_L∩G_A} l.n  /  Σ_{l.p ∈ G_L} l.n

High IPC weeds out narrowly-related queries (aspect queries, hyponyms that
only touch one surrogate); high ICR weeds out broader queries (hypernyms
and merely-related queries whose clicks mostly fall outside the surrogate
set) — this is the paper's Venn-diagram Figure 1.

The final synonyms are the candidates with ``IPC ≥ β`` and ``ICR ≥ γ``.

The miner sums both numerators in the walk that generates the candidates
(:func:`~repro.core.pipeline.mine_entity`); the two functions below are the
equations as written, and :func:`select` is the threshold, applied to the
columns of an entity's scored candidates.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.config import MinerConfig
from repro.core.types import SynonymCandidate

__all__ = [
    "intersecting_page_count",
    "intersecting_click_ratio",
    "select",
]


def intersecting_page_count(clicked_urls: set[str], surrogates: set[str]) -> int:
    """IPC: size of the intersection of clicked pages and surrogate pages."""
    return len(clicked_urls & surrogates)


def intersecting_click_ratio(
    clicks_by_url: dict[str, int], surrogates: set[str]
) -> float:
    """ICR: fraction of the candidate's clicks landing on surrogate pages.

    *clicks_by_url* is the candidate query's {url: clicks} map; the
    denominator is its total click volume.  A candidate with no clicks at
    all has ICR 0 by convention (it would never have been generated anyway).
    """
    total = sum(clicks_by_url.values())
    if total == 0:
        return 0.0
    intersecting = sum(
        clicks for url, clicks in clicks_by_url.items() if url in surrogates
    )
    return intersecting / total


def select(
    config: MinerConfig,
    queries: Sequence[str],
    ipc: Sequence[int],
    icr: Sequence[float],
    clicks: Sequence[int],
) -> list[SynonymCandidate]:
    """Build a candidate for each row of the columns with ``IPC >= β`` and
    ``ICR >= γ`` (*config*'s thresholds), row order kept; no other row is
    built."""
    beta, gamma = config.ipc_threshold, config.icr_threshold
    return [
        SynonymCandidate(query, pages, ratio, volume)
        for query, pages, ratio, volume in zip(queries, ipc, icr, clicks)
        if pages >= beta and ratio >= gamma
    ]
