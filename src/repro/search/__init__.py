"""Search-engine substrate.

The paper obtains Search Data ``A`` by issuing every canonical entity
string to the Bing Search API and keeping the top-k results.  This package
is the offline stand-in for that API: a from-scratch BM25 search engine
over the synthetic web corpus, whose top-k results per query form the
(query, url, rank) tuples of ``A``.
"""

from repro.search.documents import WebPage, Corpus
from repro.search.engine import SearchEngine, SearchResult

__all__ = [
    "WebPage",
    "Corpus",
    "SearchEngine",
    "SearchResult",
]
