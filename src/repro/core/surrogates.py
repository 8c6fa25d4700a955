"""Finding surrogates: ``G_A(u, P)`` (paper Section III-A, Eq. 1).

A *surrogate* of an input string ``u`` is a Web page that is a good
representative of the entity ``u`` describes — operationally, one of the
top-k search results when ``u`` is issued as a query (Definition 5).

Search Data ``A`` is a pre-materialised
:class:`~repro.clicklog.log.SearchLog`: the replayable record of what the
search API returned for each input string.
"""

from __future__ import annotations

from repro.clicklog.log import SearchLog
from repro.text.normalize import normalize

__all__ = ["SurrogateFinder"]


class SurrogateFinder:
    """Resolves an input string to its surrogate page set ``G_A(u, P)``."""

    def __init__(self, *, search_log: SearchLog, k: int = 10) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self._search_log = search_log
        self.k = k

    def surrogates(self, value: str) -> tuple[str, ...]:
        """Return the surrogate URLs of *value*, best-ranked first (empty for
        a string that was never materialised into Search Data)."""
        return self.for_canonical(normalize(value))

    def for_canonical(self, query: str) -> tuple[str, ...]:
        """:meth:`surrogates` for an already-normalized string (the mining
        loop normalizes each value once and must not pay for it again)."""
        return tuple(self._search_log.top_urls(query, k=self.k))

    def surrogate_set(self, value: str) -> frozenset[str]:
        """The surrogate URLs as a set (the form IPC/ICR work with)."""
        return frozenset(self.surrogates(value))
