"""Candidate generation: referencing surrogates (paper Section III-A).

Once the surrogates ``G_A(u, P)`` of an input string are known, every query
whose clicks land on at least one surrogate is a Web-synonym *candidate*
(Definition 6):

    W'_u = { w' | G_A(u,P) ∩ G_L(w',P) ≠ ∅ }

The generator walks the reverse edges of the click log (URL → queries), so
its cost is proportional to the click traffic of the surrogate pages, not
to the size of the whole log.
"""

from __future__ import annotations

from typing import Iterable

from repro.clicklog.log import ClickLog
from repro.text.normalize import normalize

__all__ = ["CandidateGenerator"]


class CandidateGenerator:
    """Generates Web-synonym candidates from the click log."""

    def __init__(self, click_log: ClickLog, *, min_clicks: int = 1) -> None:
        if min_clicks < 0:
            raise ValueError(f"min_clicks must be >= 0, got {min_clicks}")
        self.click_log = click_log
        self.min_clicks = min_clicks

    def candidates_for(
        self, value: str, surrogates: Iterable[str]
    ) -> set[str]:
        """Return the candidate set ``W'_u`` for *value* given its surrogates.

        The input string itself is always removed from the candidate set —
        by construction it trivially satisfies Definition 6 but is not a
        useful synonym of itself.
        """
        canonical = normalize(value)
        candidates: set[str] = set()
        for url in surrogates:
            for query in self.click_log.queries_clicking(url):
                if query == canonical:
                    continue
                if self.min_clicks > 1 and self.click_log.total_clicks(query) < self.min_clicks:
                    continue
                candidates.add(query)
        return candidates

    def clicked_urls(self, candidate: str) -> set[str]:
        """``G_L(w', P)``: every URL clicked for the candidate query (Eq. 2)."""
        return self.click_log.urls_clicked_for(candidate)
