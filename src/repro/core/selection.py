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
equations as written.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.types import SynonymCandidate

__all__ = [
    "intersecting_page_count",
    "intersecting_click_ratio",
    "CandidateSelector",
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


class CandidateSelector:
    """Applies the β (IPC) and γ (ICR) thresholds to scored candidates."""

    def __init__(self, *, ipc_threshold: int = 4, icr_threshold: float = 0.1) -> None:
        if ipc_threshold < 0:
            raise ValueError(f"ipc_threshold must be >= 0, got {ipc_threshold}")
        if not 0.0 <= icr_threshold <= 1.0:
            raise ValueError(f"icr_threshold must be in [0, 1], got {icr_threshold}")
        self.ipc_threshold = ipc_threshold
        self.icr_threshold = icr_threshold

    def select(self, candidates: Iterable[SynonymCandidate]) -> list[SynonymCandidate]:
        """Return the candidates clearing both thresholds, input order kept."""
        return [
            candidate
            for candidate in candidates
            if candidate.passes(
                ipc_threshold=self.ipc_threshold, icr_threshold=self.icr_threshold
            )
        ]
