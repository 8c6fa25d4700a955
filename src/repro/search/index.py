"""Inverted index over the synthetic web corpus.

The index stores, for every term, the list of postings (document id, term
frequency).  It also keeps per-document lengths so the BM25 scorer can
normalise by document length.  Everything is in memory — the corpora in the
paper-scale experiments are a few thousand pages.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator

from repro.search.documents import Corpus, WebPage

__all__ = ["Posting", "InvertedIndex"]


@dataclass(frozen=True)
class Posting:
    """One (document, term-frequency) entry of a postings list."""

    doc_id: int
    term_frequency: int


class InvertedIndex:
    """Term → postings-list index with document statistics.

    Documents are referred to internally by dense integer ids (assignment
    order); :meth:`url_of` and :meth:`doc_id_of` translate between ids and
    page URLs.
    """

    def __init__(self) -> None:
        self._postings: dict[str, list[Posting]] = {}
        self._doc_lengths: list[int] = []
        self._urls: list[str] = []
        self._url_to_doc_id: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_corpus(cls, corpus: Corpus) -> "InvertedIndex":
        """Build an index over every page of *corpus*."""
        index = cls()
        for page in corpus:
            index.add_page(page)
        return index

    def add_page(self, page: WebPage) -> int:
        """Index *page* and return its document id.

        Re-adding a URL that is already indexed raises ``ValueError`` —
        the simulator never updates pages in place.
        """
        if page.url in self._url_to_doc_id:
            raise ValueError(f"URL already indexed: {page.url!r}")
        doc_id = len(self._urls)
        self._urls.append(page.url)
        self._url_to_doc_id[page.url] = doc_id

        tokens = page.indexable_tokens()
        self._doc_lengths.append(len(tokens))
        for term, frequency in Counter(tokens).items():
            self._postings.setdefault(term, []).append(Posting(doc_id, frequency))
        return doc_id

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    def postings(self, term: str) -> list[Posting]:
        """Return the postings list of *term* (empty if unseen)."""
        return self._postings.get(term, [])

    def document_frequency(self, term: str) -> int:
        """Number of documents containing *term*."""
        return len(self._postings.get(term, ()))

    def terms(self) -> Iterator[str]:
        """Iterate over every indexed term."""
        return iter(self._postings)

    def url_of(self, doc_id: int) -> str:
        """Translate a document id back to its URL."""
        return self._urls[doc_id]

    def doc_id_of(self, url: str) -> int:
        """Translate a URL to its document id; raises ``KeyError`` if absent."""
        return self._url_to_doc_id[url]

    def document_length(self, doc_id: int) -> int:
        """Number of indexed tokens of the document."""
        return self._doc_lengths[doc_id]

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #

    @property
    def document_count(self) -> int:
        """Number of indexed documents."""
        return len(self._urls)

    @property
    def average_document_length(self) -> float:
        """Mean indexed-token count per document (0.0 for an empty index)."""
        if not self._doc_lengths:
            return 0.0
        return sum(self._doc_lengths) / len(self._doc_lengths)
