"""Descriptive statistics over query and click logs.

The paper's argument rests on distributional facts about query logs — query
frequency is heavy-tailed, canonical data values are rarely typed, informal
aliases dominate traffic.  This module computes those facts from a
:class:`~repro.clicklog.log.ClickLog`, so that examples and experiment
reports can show the log the miner actually saw, and so tests can assert
the simulator reproduces the distributions that the method relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.clicklog.log import ClickLog

__all__ = ["QueryLogStats", "compute_stats", "head_share", "rank_frequency"]


@dataclass(frozen=True)
class QueryLogStats:
    """Summary statistics of a click log."""

    distinct_queries: int
    distinct_urls: int
    total_clicks: int
    mean_clicks_per_query: float
    median_clicks_per_query: float
    max_clicks_per_query: int
    singleton_query_share: float
    gini_coefficient: float

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view used by reports."""
        return {
            "distinct_queries": self.distinct_queries,
            "distinct_urls": self.distinct_urls,
            "total_clicks": self.total_clicks,
            "mean_clicks_per_query": round(self.mean_clicks_per_query, 3),
            "median_clicks_per_query": self.median_clicks_per_query,
            "max_clicks_per_query": self.max_clicks_per_query,
            "singleton_query_share": round(self.singleton_query_share, 4),
            "gini_coefficient": round(self.gini_coefficient, 4),
        }


def _gini(values: list[int]) -> float:
    """Gini coefficient of a non-negative sample (0 = equal, → 1 = concentrated)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    total = sum(ordered)
    if total == 0:
        return 0.0
    cumulative = 0.0
    weighted = 0.0
    for index, value in enumerate(ordered, start=1):
        cumulative += value
        weighted += cumulative
    n = len(ordered)
    return (n + 1 - 2 * weighted / total) / n


def compute_stats(click_log: ClickLog) -> QueryLogStats:
    """Compute :class:`QueryLogStats` for *click_log*."""
    volumes = [click_log.total_clicks(query) for query in click_log.queries()]
    if not volumes:
        return QueryLogStats(
            distinct_queries=0,
            distinct_urls=0,
            total_clicks=0,
            mean_clicks_per_query=0.0,
            median_clicks_per_query=0.0,
            max_clicks_per_query=0,
            singleton_query_share=0.0,
            gini_coefficient=0.0,
        )
    ordered = sorted(volumes)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        median = float(ordered[middle])
    else:
        median = (ordered[middle - 1] + ordered[middle]) / 2.0
    return QueryLogStats(
        distinct_queries=len(volumes),
        distinct_urls=len(click_log.urls()),
        total_clicks=sum(volumes),
        mean_clicks_per_query=sum(volumes) / len(volumes),
        median_clicks_per_query=median,
        max_clicks_per_query=max(volumes),
        singleton_query_share=sum(1 for volume in volumes if volume == 1) / len(volumes),
        gini_coefficient=_gini(volumes),
    )


def rank_frequency(click_log: ClickLog, *, top: int | None = None) -> list[tuple[str, int]]:
    """Queries ordered by click volume (descending), optionally truncated."""
    ranked = sorted(
        ((query, click_log.total_clicks(query)) for query in click_log.queries()),
        key=lambda item: (-item[1], item[0]),
    )
    return ranked[:top] if top is not None else ranked


def head_share(click_log: ClickLog, *, head_fraction: float = 0.1) -> float:
    """Share of total click volume carried by the most popular queries.

    ``head_fraction`` = 0.1 asks "what share of clicks do the top 10% of
    queries account for"; heavy-tailed logs answer well above 0.5.
    """
    if not 0.0 < head_fraction <= 1.0:
        raise ValueError(f"head_fraction must be in (0, 1], got {head_fraction}")
    ranked = rank_frequency(click_log)
    if not ranked:
        return 0.0
    head_count = max(1, math.ceil(len(ranked) * head_fraction))
    total = sum(volume for _query, volume in ranked)
    if total == 0:
        return 0.0
    return sum(volume for _query, volume in ranked[:head_count]) / total
