"""Record schemas for search and click logs.

The dataclasses mirror the tuple definitions of the paper's Section II:

* ``SearchRecord``  ⟨q, p, r⟩ — Search Data ``A``
* ``ClickRecord``   ⟨q, p, n⟩ — Click Data ``L``

q and p are non-empty strings; r and n are ints of at least 1 (``bool`` is
not a count).  Each record checks this once, in its own ``__init__``, which
is on the path of every line a log load reads.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SearchRecord", "ClickRecord"]


def _count_error(name: str, value: object) -> ValueError:
    if type(value) is not int:
        return ValueError(f"{name} must be an int, got {value!r}")
    return ValueError(f"{name} must be >= 1, got {value}")


@dataclass(frozen=True, init=False)
class SearchRecord:
    """One Search Data tuple ⟨q, p, r⟩: query, result URL, 1-based rank."""

    query: str
    url: str
    rank: int

    def __init__(self, query: str, url: str, rank: int) -> None:
        if type(rank) is not int or rank < 1:
            raise _count_error("rank", rank)
        if type(query) is not str or not query:
            raise ValueError(f"query must be a non-empty str, got {query!r}")
        if type(url) is not str or not url:
            raise ValueError(f"url must be a non-empty str, got {url!r}")
        # Frozen: fill the instance dict directly, which is cheaper than
        # object.__setattr__ per field (this runs once per log line read).
        fields = self.__dict__
        fields["query"] = query
        fields["url"] = url
        fields["rank"] = rank


@dataclass(frozen=True, init=False)
class ClickRecord:
    """One Click Data tuple ⟨q, p, n⟩: query, clicked URL, click count."""

    query: str
    url: str
    clicks: int

    def __init__(self, query: str, url: str, clicks: int) -> None:
        if type(clicks) is not int or clicks < 1:
            raise _count_error("clicks", clicks)
        if type(query) is not str or not query:
            raise ValueError(f"query must be a non-empty str, got {query!r}")
        if type(url) is not str or not url:
            raise ValueError(f"url must be a non-empty str, got {url!r}")
        fields = self.__dict__
        fields["query"] = query
        fields["url"] = url
        fields["clicks"] = clicks
