"""The query-serving facade of the search substrate.

:class:`SearchEngine` ties the corpus, the inverted index and the BM25
scorer together behind one operation, ``search(query, k)``: ranked top-k
results for one query.  The simulated users call it, and
:func:`repro.simulation.logs.generate_logs` keeps the top-k results of each
canonical entity string as Search Data ``A``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.search.bm25 import BM25Scorer
from repro.search.documents import Corpus
from repro.search.index import InvertedIndex
from repro.text.tokenize import tokenize

__all__ = ["SearchResult", "SearchEngine"]


@dataclass(frozen=True)
class SearchResult:
    """One ranked result: URL, 1-based rank and the BM25 score."""

    url: str
    rank: int
    score: float


class SearchEngine:
    """BM25 search over a :class:`Corpus`.

    Ties are broken deterministically by (score desc, URL asc) so that the
    whole reproduction — log generation, mining, benchmarks — is exactly
    reproducible for a fixed corpus and seed.
    """

    def __init__(self, corpus: Corpus) -> None:
        self.corpus = corpus
        self.index = InvertedIndex.from_corpus(corpus)
        self.scorer = BM25Scorer(self.index)

    def search(self, query: str, *, k: int = 10) -> list[SearchResult]:
        """Return the top-*k* results for *query* (possibly fewer).

        An empty or fully out-of-vocabulary query returns an empty list,
        mirroring a search API returning no results.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        tokens = tokenize(query)
        if not tokens:
            return []
        scores = self.scorer.score_all(tokens)
        if not scores:
            return []
        ranked = sorted(
            scores.items(), key=lambda item: (-item[1], self.index.url_of(item[0]))
        )[:k]
        return [
            SearchResult(url=self.index.url_of(doc_id), rank=rank, score=score)
            for rank, (doc_id, score) in enumerate(ranked, start=1)
        ]
