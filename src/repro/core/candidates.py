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

    def __init__(self, click_log: ClickLog) -> None:
        self.click_log = click_log

    def candidates_for(
        self, value: str, surrogates: Iterable[str]
    ) -> set[str]:
        """Return the candidate set ``W'_u`` for *value* given its surrogates.

        The input string itself is always removed from the candidate set —
        by construction it trivially satisfies Definition 6 but is not a
        useful synonym of itself.
        """
        candidates: set[str] = set()
        for url in surrogates:
            candidates.update(self.click_log.queries_clicking(url))
        candidates.discard(normalize(value))
        return candidates
