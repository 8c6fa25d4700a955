"""Aggregated search and click logs with the lookups the miner needs.

``ClickLog`` answers the questions candidate generation and selection ask,
in dictionary lookups after aggregation:

* ``intersecting(G_A(u, P))``  →  every candidate of ``u`` (Definition 6)
  with its IPC and ICR numerator, in one walk over the reverse edges
* ``total_clicks(query)``      →  the ICR denominator
* ``urls_clicked_for(query)`` / ``queries_clicking(url)`` /
  ``clicks(query, url)`` / ``clicks_by_url(query)``  →  G_L(q, P) and the
  click graph's edges, read one at a time (the random-walk baseline)

``SearchLog`` is the analogous container for Search Data ``A`` and answers
``top_urls(query, k)`` → G_A(q, P).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator, Mapping

from repro.clicklog.records import ClickRecord, SearchRecord

__all__ = ["ClickLog", "SearchLog"]


class SearchLog:
    """Search Data ``A``: per-query ranked URL lists.

    ``A`` is a *set* of ⟨q, p, r⟩ tuples, so a page appears at most once per
    query: a repeated (query, url) pair keeps its best (lowest) rank.
    """

    def __init__(self, records: Iterable[SearchRecord] = ()) -> None:
        # query -> url -> (rank, url): the value is the sort key top_urls()
        # orders by, built once per tuple rather than on every sort.
        self._results: dict[str, dict[str, tuple[int, str]]] = defaultdict(dict)
        # Per-query sorted views; invalidated per-query by add().  top_urls()
        # sits on the per-entity refresh hot path, so re-sorting an unchanged
        # ranking on every call is wasted work.
        self._sorted: dict[str, list[tuple[int, str]]] = {}
        self._accumulate(records)

    def add(self, record: SearchRecord) -> None:
        """Add one ⟨q, p, r⟩ tuple; a page already listed keeps its best rank."""
        self._accumulate((record,))

    def _accumulate(self, records: Iterable[SearchRecord]) -> None:
        """The one ingest rule, shared by the constructor and :meth:`add`."""
        results = self._results
        cached = self._sorted
        for record in records:
            query = record.query
            url = record.url
            rank = record.rank
            entry = (rank, url)
            per_query = results[query]
            if per_query.setdefault(url, entry)[0] > rank:
                per_query[url] = entry
            if cached:
                cached.pop(query, None)

    @classmethod
    def from_tuples(cls, tuples: Iterable[tuple[str, str, int]]) -> "SearchLog":
        """Build from raw (query, url, rank) tuples."""
        return cls(SearchRecord(query, url, rank) for query, url, rank in tuples)

    def _ranked(self, query: str) -> list[tuple[int, str]]:
        """The (rank, url) list of *query* in rank order, cached until add()."""
        cached = self._sorted.get(query)
        if cached is None:
            if query not in self._results:
                return []
            cached = sorted(self._results[query].values())
            self._sorted[query] = cached
        return cached

    def top_urls(self, query: str, *, k: int | None = None) -> list[str]:
        """URLs for *query* in rank order, optionally truncated to rank ≤ k.

        This is exactly G_A(query, P) from Eq. 1 of the paper.
        """
        ranked = self._ranked(query)
        if k is not None:
            return [url for rank, url in ranked if rank <= k]
        return [url for _rank, url in ranked]

    def queries(self) -> list[str]:
        """All query strings present in the search data."""
        return list(self._results)

    def __contains__(self, query: str) -> bool:
        return query in self._results

    def __len__(self) -> int:
        """Number of distinct (query, url) pairs."""
        return sum(len(urls) for urls in self._results.values())

    def iter_records(self) -> Iterator[SearchRecord]:
        """Yield every stored record (query order, then rank order)."""
        for query in self._results:
            for rank, url in self._ranked(query):
                yield SearchRecord(query, url, rank)


class ClickLog:
    """Click Data ``L``: aggregated (query, url) → click-count map.

    Concurrency contract: any number of threads may read a quiescent log at
    once, because no read writes to it; :meth:`add` is exclusive — no reader
    and no other writer may run alongside it.
    """

    def __init__(self, records: Iterable[ClickRecord] = ()) -> None:
        self._clicks: dict[str, dict[str, int]] = defaultdict(dict)
        self._url_to_queries: dict[str, set[str]] = defaultdict(set)
        self._query_totals: dict[str, int] = defaultdict(int)
        self._accumulate(records)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def add(self, record: ClickRecord) -> None:
        """Add one ⟨q, p, n⟩ tuple, accumulating clicks for repeated pairs."""
        self._accumulate((record,))

    def _accumulate(self, records: Iterable[ClickRecord]) -> None:
        """The one ingest rule, shared by the constructor and :meth:`add`."""
        clicks_of = self._clicks
        url_to_queries = self._url_to_queries
        totals = self._query_totals
        for record in records:
            query = record.query
            url = record.url
            clicks = record.clicks
            per_query = clicks_of[query]
            per_query[url] = per_query.get(url, 0) + clicks
            url_to_queries[url].add(query)
            totals[query] += clicks

    @classmethod
    def from_tuples(cls, tuples: Iterable[tuple[str, str, int]]) -> "ClickLog":
        """Build from raw (query, url, clicks) tuples."""
        return cls(ClickRecord(query, url, clicks) for query, url, clicks in tuples)

    # ------------------------------------------------------------------ #
    # Lookups used by the miner
    # ------------------------------------------------------------------ #

    def urls_clicked_for(self, query: str) -> set[str]:
        """G_L(query, P): URLs with ≥ 1 click for *query* (Eq. 2)."""
        return set(self._clicks.get(query, ()))

    def queries_clicking(self, url: str) -> set[str]:
        """All queries with ≥ 1 click on *url* (the reverse click-graph edge)."""
        return set(self._url_to_queries.get(url, ()))

    def clicks(self, query: str, url: str) -> int:
        """Click count n for the pair (query, url); 0 when the pair is absent."""
        return self._clicks.get(query, {}).get(url, 0)

    def total_clicks(self, query: str) -> int:
        """Total clicks issued from *query* over all URLs (ICR denominator)."""
        return self._query_totals.get(query, 0)

    def clicks_by_url(self, query: str) -> Mapping[str, int]:
        """The {url: clicks} map of *query* (read-only view semantics)."""
        return dict(self._clicks.get(query, {}))

    def intersecting(self, urls: Iterable[str]) -> dict[str, list[int]]:
        """Per query that clicked any of *urls*: ``[pages, clicks]``, how many
        of *urls* it clicked and its clicks on them.

        For the surrogate set ``G_A(u, P)`` these are IPC (Eq. 3) and the
        numerator of ICR (Eq. 4) of every Web-synonym candidate of ``u``
        (Definition 6).  *urls* must be distinct.  The walk reads the
        reverse click edges of *urls* only, so it costs the click traffic of
        those pages, not the size of the log.
        """
        clicks_of = self._clicks
        url_to_queries = self._url_to_queries
        found: dict[str, list[int]] = {}
        for url in urls:
            for query in url_to_queries.get(url, ()):
                clicks = clicks_of[query][url]
                counts = found.get(query)
                if counts is None:
                    found[query] = [1, clicks]
                else:
                    counts[0] += 1
                    counts[1] += clicks
        return found

    # ------------------------------------------------------------------ #
    # Whole-log iteration and statistics
    # ------------------------------------------------------------------ #

    def queries(self) -> list[str]:
        """All distinct query strings with at least one click."""
        return list(self._clicks)

    def urls(self) -> list[str]:
        """All distinct clicked URLs."""
        return list(self._url_to_queries)

    def __contains__(self, query: str) -> bool:
        return query in self._clicks

    def __len__(self) -> int:
        """Number of distinct (query, url) pairs."""
        return sum(len(urls) for urls in self._clicks.values())

    def iter_records(self) -> Iterator[ClickRecord]:
        """Yield every aggregated ⟨q, p, n⟩ record."""
        for query, per_query in self._clicks.items():
            for url, clicks in per_query.items():
                yield ClickRecord(query, url, clicks)

    def total_click_volume(self) -> int:
        """Sum of all click counts in the log."""
        return sum(self._query_totals.values())
