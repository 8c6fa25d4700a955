"""Okapi BM25 ranking over the inverted index.

BM25 is the standard bag-of-words ranking function; the reproduction uses
it as the stand-in for Bing's (proprietary) ranker when generating Search
Data ``A``.  What the synonym miner needs from the ranker is only that
pages *about* an entity outrank background pages for the entity's canonical
name, which BM25 delivers comfortably on the entity-centric corpus.
"""

from __future__ import annotations

import math

from repro.search.index import InvertedIndex
from repro.text.stopwords import STOPWORDS

__all__ = ["BM25Scorer", "K1", "B", "STOPWORD_WEIGHT"]

K1 = 1.2
"""Term-frequency saturation."""

B = 0.75
"""Strength of document-length normalisation."""

STOPWORD_WEIGHT = 0.25
"""Scale of a stopword term's contribution relative to any other term."""


class BM25Scorer:
    """Scores documents of an :class:`InvertedIndex` against token queries."""

    def __init__(self, index: InvertedIndex) -> None:
        self.index = index

    def idf(self, term: str) -> float:
        """Robertson–Sparck-Jones idf with the +1 floor (never negative)."""
        doc_count = self.index.document_count
        doc_frequency = self.index.document_frequency(term)
        return math.log(1.0 + (doc_count - doc_frequency + 0.5) / (doc_frequency + 0.5))

    def score_all(self, query_tokens: list[str]) -> dict[int, float]:
        """Return {doc_id: score} for every document matching ≥ 1 query term."""
        avg_length = self.index.average_document_length or 1.0
        scores: dict[int, float] = {}
        for term in query_tokens:
            postings = self.index.postings(term)
            if not postings:
                continue
            weight = STOPWORD_WEIGHT if term in STOPWORDS else 1.0
            term_idf = self.idf(term)
            for posting in postings:
                doc_length = self.index.document_length(posting.doc_id)
                tf = posting.term_frequency
                denominator = tf + K1 * (1.0 - B + B * doc_length / avg_length)
                contribution = term_idf * tf * (K1 + 1.0) / denominator
                scores[posting.doc_id] = scores.get(posting.doc_id, 0.0) + weight * contribution
        return scores
