"""BM25 search over the synthetic web corpus.

:class:`SearchEngine` indexes a :class:`Corpus` once and answers one
operation, ``search(query, k)``: ranked top-k results for one query.  The
simulated users call it, and :func:`repro.simulation.logs.generate_logs`
keeps the top-k results of each canonical entity string as Search Data
``A``.  Each (query, k) is searched once per engine: the log generator and
every month's click simulator share one world's engine, and so its answers.

Okapi BM25 is the stand-in for Bing's (proprietary) ranker.  What the
synonym miner needs from the ranker is only that pages *about* an entity
outrank background pages for the entity's canonical name, which BM25
delivers comfortably on the entity-centric corpus.  A term's BM25
contribution to a page depends only on the corpus, so each is computed once
at index time and a query only sums them (an impact-ordered index).
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass

from repro.search.documents import Corpus
from repro.text.stopwords import STOPWORDS
from repro.text.tokenize import tokenize

__all__ = ["SearchResult", "SearchEngine", "K1", "B", "STOPWORD_WEIGHT"]

K1 = 1.2
"""Term-frequency saturation."""

B = 0.75
"""Strength of document-length normalisation."""

STOPWORD_WEIGHT = 0.25
"""Scale of a stopword term's contribution relative to any other term."""


@dataclass(frozen=True)
class SearchResult:
    """One ranked result: URL, 1-based rank and the BM25 score."""

    url: str
    rank: int
    score: float


class SearchEngine:
    """BM25 search over a :class:`Corpus`.

    Pages are referred to internally by their position in the corpus.
    Ties are broken deterministically by (score desc, URL asc) so that the
    whole reproduction — log generation, mining, benchmarks — is exactly
    reproducible for a fixed corpus and seed.  The corpus is indexed once,
    at construction; pages added to it later are not searched.
    """

    def __init__(self, corpus: Corpus) -> None:
        self.corpus = corpus
        self._urls = corpus.urls
        frequencies: dict[str, list[tuple[int, int]]] = {}
        lengths: list[int] = []
        for doc_id, page in enumerate(corpus):
            tokens = page.indexable_tokens()
            lengths.append(len(tokens))
            for term, tf in Counter(tokens).items():
                frequencies.setdefault(term, []).append((doc_id, tf))

        doc_count = len(lengths)
        avg_length = (sum(lengths) / doc_count if doc_count else 0.0) or 1.0
        length_norms = [K1 * (1.0 - B + B * length / avg_length) for length in lengths]
        self._impacts: dict[str, list[tuple[int, float]]] = {}
        for term, postings in frequencies.items():
            weight = STOPWORD_WEIGHT if term in STOPWORDS else 1.0
            # Robertson–Sparck-Jones idf with the +1 floor (never negative).
            idf = math.log(1.0 + (doc_count - len(postings) + 0.5) / (len(postings) + 0.5))
            self._impacts[term] = [
                (doc_id, weight * (idf * tf * (K1 + 1.0) / (tf + length_norms[doc_id])))
                for doc_id, tf in postings
            ]
        self._answers: dict[tuple[str, int], tuple[SearchResult, ...]] = {}

    def search(self, query: str, *, k: int = 10) -> tuple[SearchResult, ...]:
        """Return the top-*k* results for *query* (possibly fewer).

        A page's score sums its contributions in query-term order, a
        repeated term counting each time.  An empty or fully
        out-of-vocabulary query returns an empty tuple, mirroring a search
        API returning no results.  The answer is kept and returned again
        for the same (query, k); it is a tuple, so no caller can change
        what another caller reads.
        """
        answer = self._answers.get((query, k))
        if answer is None:
            answer = self._answers[query, k] = self._rank(query, k)
        return answer

    def _rank(self, query: str, k: int) -> tuple[SearchResult, ...]:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        scores: dict[int, float] = {}
        for term in tokenize(query):
            for doc_id, contribution in self._impacts.get(term, ()):
                scores[doc_id] = scores.get(doc_id, 0.0) + contribution
        if not scores:
            return ()
        # Only pages that score at least the k-th largest can make the cut.
        cutoff = heapq.nlargest(k, scores.values())[-1]
        urls = self._urls
        ranked = sorted((-score, urls[doc_id]) for doc_id, score in scores.items() if score >= cutoff)
        return tuple(
            SearchResult(url=url, rank=rank, score=-negated)
            for rank, (negated, url) in enumerate(ranked[:k], start=1)
        )
