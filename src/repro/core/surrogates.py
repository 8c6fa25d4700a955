"""Finding surrogates: ``G_A(u, P)`` (paper Section III-A, Eq. 1).

A *surrogate* of an input string ``u`` is a Web page that is a good
representative of the entity ``u`` describes — operationally, one of the
top-k search results when ``u`` is issued as a query (Definition 5).

Two sources are supported, mirroring the two ways the paper could obtain
Search Data:

* a pre-materialised :class:`~repro.clicklog.log.SearchLog` (the offline
  batch shape used by the experiments), or
* a live :class:`~repro.search.engine.SearchEngine` queried on demand (the
  Bing-API shape).
"""

from __future__ import annotations

from repro.clicklog.log import SearchLog
from repro.search.engine import SearchEngine
from repro.text.normalize import normalize

__all__ = ["SurrogateFinder"]


class SurrogateFinder:
    """Resolves an input string to its surrogate page set ``G_A(u, P)``."""

    def __init__(
        self,
        *,
        search_log: SearchLog | None = None,
        engine: SearchEngine | None = None,
        k: int = 10,
    ) -> None:
        if search_log is None and engine is None:
            raise ValueError("no Search Data: provide a search_log, an engine, or both")
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self._search_log = search_log
        self._engine = engine
        self.k = k

    def surrogates(self, value: str) -> tuple[str, ...]:
        """Return the surrogate URLs of *value*, best-ranked first.

        The search log is consulted first (it is the replayable record of
        what the search API returned); the live engine is the fallback for
        strings that were never materialised into Search Data.
        """
        return self.for_canonical(normalize(value))

    def for_canonical(self, query: str) -> tuple[str, ...]:
        """:meth:`surrogates` for an already-normalized string (the mining
        loop normalizes each value once and must not pay for it again)."""
        if self._search_log is not None:
            urls = self._search_log.top_urls(query, k=self.k)
            if urls:
                return tuple(urls)
        if self._engine is not None:
            return tuple(self._engine.top_urls(query, k=self.k))
        return ()

    def surrogate_set(self, value: str) -> frozenset[str]:
        """The surrogate URLs as a set (the form IPC/ICR work with)."""
        return frozenset(self.surrogates(value))
