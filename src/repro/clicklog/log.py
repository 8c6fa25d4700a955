"""Aggregated search and click logs with the lookups the miner needs.

``ClickLog`` answers the three questions candidate generation and selection
ask, all in O(1) dictionary lookups after aggregation:

* ``urls_clicked_for(query)``        →  G_L(q, P)
* ``queries_clicking(url)``          →  the reverse edge (candidate discovery)
* ``clicks(query, url)`` / ``total_clicks(query)``  →  numerator / denominator of ICR

``SearchLog`` is the analogous container for Search Data ``A`` and answers
``top_urls(query, k)`` → G_A(q, P).
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.clicklog.records import ClickRecord, SearchRecord

__all__ = ["ClickLog", "SearchLog", "CandidateProfile", "CacheStats"]


@dataclass(frozen=True)
class CandidateProfile:
    """Everything candidate selection needs to know about one query.

    ``clicked_urls`` is ``G_L(query, P)`` (Eq. 2), ``total_clicks`` the ICR
    denominator and ``clicks_by_url`` the per-URL numerator terms.  Scoring a
    candidate against any surrogate set only reads this triple, which is what
    makes it worth memoizing when the same candidate recurs across entities.
    """

    query: str
    clicked_urls: frozenset[str]
    total_clicks: int
    clicks_by_url: Mapping[str, int]


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters of a :class:`ClickLog`'s profile cache."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of profile lookups served from the cache (0 when idle)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def __sub__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(self.hits - other.hits, self.misses - other.misses)


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
    once; :meth:`add` is exclusive — no reader and no other writer may run
    alongside it.
    """

    def __init__(self, records: Iterable[ClickRecord] = ()) -> None:
        self._clicks: dict[str, dict[str, int]] = defaultdict(dict)
        self._url_to_queries: dict[str, set[str]] = defaultdict(set)
        self._query_totals: dict[str, int] = defaultdict(int)
        # Per-query scoring profiles; invalidated per-query by add().  Broad
        # queries recur as candidates of thousands of entities, so building
        # the same profile once per entity is most of what mining would cost.
        self._profiles: dict[str, CandidateProfile] = {}
        # Guards the cache map and counters so concurrent readers neither
        # lose counter increments nor race cache insertion.
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
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
        profiles = self._profiles
        for record in records:
            query = record.query
            url = record.url
            clicks = record.clicks
            per_query = clicks_of[query]
            per_query[url] = per_query.get(url, 0) + clicks
            url_to_queries[url].add(query)
            totals[query] += clicks
            if profiles:
                profiles.pop(query, None)

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

    def candidate_profile(self, query: str) -> CandidateProfile:
        """The scoring view of *query*, built once and shared until the next
        :meth:`add` for that query.

        Only queries present in the log are cached, so the cache is bounded
        by the log's own per-query state.
        """
        with self._lock:
            cached = self._profiles.get(query)
            if cached is not None:
                self._hits += 1
                return cached
            self._misses += 1
        per_query = self._clicks.get(query)
        if per_query is None:
            return CandidateProfile(query, frozenset(), 0, {})
        profile = CandidateProfile(
            query=query,
            clicked_urls=frozenset(per_query),
            total_clicks=self._query_totals.get(query, 0),
            clicks_by_url=dict(per_query),
        )
        with self._lock:
            # Two threads may build the same profile concurrently; the
            # first insertion wins so callers share one object.
            return self._profiles.setdefault(query, profile)

    @property
    def cache_stats(self) -> CacheStats:
        """Cumulative profile-cache counters since construction."""
        with self._lock:
            return CacheStats(hits=self._hits, misses=self._misses)

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
