"""Record schemas for search and click logs.

The dataclasses mirror the tuple definitions of the paper's Section II:

* ``SearchRecord``  ⟨q, p, r⟩ — Search Data ``A``
* ``ClickRecord``   ⟨q, p, n⟩ — Click Data ``L``
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SearchRecord", "ClickRecord"]


@dataclass(frozen=True)
class SearchRecord:
    """One Search Data tuple ⟨q, p, r⟩: query, result URL, 1-based rank."""

    query: str
    url: str
    rank: int

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if not self.query:
            raise ValueError("query must be non-empty")
        if not self.url:
            raise ValueError("url must be non-empty")


@dataclass(frozen=True)
class ClickRecord:
    """One Click Data tuple ⟨q, p, n⟩: query, clicked URL, click count."""

    query: str
    url: str
    clicks: int

    def __post_init__(self) -> None:
        if self.clicks < 1:
            raise ValueError(f"clicks must be >= 1, got {self.clicks}")
        if not self.query:
            raise ValueError("query must be non-empty")
        if not self.url:
            raise ValueError("url must be non-empty")
