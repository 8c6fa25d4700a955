"""Document model for the synthetic web corpus.

A :class:`WebPage` is the unit the search engine indexes and the unit the
click log refers to (by URL).  A :class:`Corpus` is an ordered, URL-keyed
collection of pages with convenience constructors for the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.text.tokenize import tokenize

__all__ = ["WebPage", "Corpus", "TITLE_BOOST"]

TITLE_BOOST = 3
"""How many times a page's title tokens count in the index."""


@dataclass(frozen=True)
class WebPage:
    """One synthetic web page.

    Attributes
    ----------
    url:
        Unique identifier; also the join key between Search Data and Click
        Data.
    title:
        Page title; indexed with a boost because titles on real pages are
        the strongest signal for entity-bearing pages.
    body:
        Free text of the page.
    site:
        Hostname-like label of the publishing site (e.g. ``"wiki.example"``,
        ``"shop.example"``); used by the simulator to vary page styles and
        by diagnostics, not by the ranking function.
    entity_id:
        Identifier of the entity the page is "about", or ``None`` for
        background/noise pages.  Ground truth only — the search engine and
        the miner never read it.
    """

    url: str
    title: str
    body: str
    site: str = ""
    entity_id: str | None = None

    def indexable_tokens(self) -> list[str]:
        """Tokens fed to the index; the title is repeated :data:`TITLE_BOOST` times.

        Repeating title tokens is the simplest way to express field boosts
        in a single-field BM25 index and mirrors what simple web search
        stacks do.
        """
        tokens = tokenize(self.title) * TITLE_BOOST
        tokens.extend(tokenize(self.body))
        return tokens


class Corpus:
    """An ordered collection of :class:`WebPage` keyed by URL."""

    def __init__(self, pages: Iterable[WebPage] = ()) -> None:
        self._pages: dict[str, WebPage] = {}
        for page in pages:
            self.add(page)

    def add(self, page: WebPage) -> None:
        """Add *page*; adding two different pages with one URL is an error."""
        existing = self._pages.get(page.url)
        if existing is not None and existing != page:
            raise ValueError(f"duplicate URL with different content: {page.url!r}")
        self._pages[page.url] = page

    def __len__(self) -> int:
        return len(self._pages)

    def __iter__(self) -> Iterator[WebPage]:
        return iter(self._pages.values())

    def __contains__(self, url: str) -> bool:
        return url in self._pages

    def get(self, url: str) -> WebPage | None:
        """Return the page at *url*, or ``None`` if absent."""
        return self._pages.get(url)

    def __getitem__(self, url: str) -> WebPage:
        try:
            return self._pages[url]
        except KeyError:
            raise KeyError(f"no page with URL {url!r}") from None

    @property
    def urls(self) -> list[str]:
        """All URLs in insertion order."""
        return list(self._pages)
