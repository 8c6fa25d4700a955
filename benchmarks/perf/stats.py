"""Pure statistics used by the harness: percentiles, spread, span self time."""

from __future__ import annotations

import statistics
from typing import Sequence

__all__ = [
    "median",
    "percentile",
    "self_times",
    "spread",
    "supported_percentile",
    "tail_percentile",
]

# Candidate tail percentiles, highest first; the guide's rule picks the
# highest one that still leaves at least MIN_BEYOND samples beyond it.
_TAIL_CANDIDATES = (99, 95, 90, 75)
MIN_BEYOND = 10

# One span: (name, start, end, parent index or -1, request index).
Span = tuple[str, float, float, int, int]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def spread(values: Sequence[float]) -> float:
    """IQR / median (``statistics.quantiles(n=4)``); 0 below two samples."""
    if len(values) < 2:
        return 0.0
    middle = statistics.median(values)
    if middle == 0:
        return 0.0
    first, _second, third = statistics.quantiles(values, n=4)
    return abs((third - first) / middle)


def percentile(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence (daemon convention)."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(0, min(len(ordered) - 1, round(pct / 100.0 * len(ordered)) - 1))
    return ordered[rank]


def supported_percentile(count: int, wanted: int = 99) -> int:
    """Highest percentile <= *wanted* with >= MIN_BEYOND samples beyond it."""
    for candidate in _TAIL_CANDIDATES:
        if candidate <= wanted and count * (100 - candidate) / 100.0 >= MIN_BEYOND:
            return candidate
    return 50


def tail_percentile(values: Sequence[float], wanted: int = 99) -> tuple[float, int]:
    """``(value, percentile actually used)`` under the >=10-beyond rule."""
    used = supported_percentile(len(values), wanted)
    return percentile(sorted(values), used), used


def self_times(spans: Sequence[Span]) -> list[float]:
    """Self time of each span: its duration minus what its children cover.

    Children may nest or overlap each other; the covered part is the
    union of their intervals clipped to the parent, so overlapping
    children are never subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _name, start, end, parent, _request in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result: list[float] = []
    for index, (_name, start, end, _parent, _request) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result.append((end - start) - covered)
    return result
