"""Property-based tests for the search substrate (BM25 ranking)."""

import math
import string
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.search.documents import Corpus, WebPage
from repro.search.engine import B, K1, STOPWORD_WEIGHT, SearchEngine
from repro.text.stopwords import STOPWORDS
from repro.text.tokenize import tokenize

word = st.text(alphabet=string.ascii_lowercase, min_size=2, max_size=7)
term = st.one_of(word, st.sampled_from(sorted(STOPWORDS)))
sentence = st.lists(term, min_size=1, max_size=12).map(" ".join)


@st.composite
def corpora(draw) -> Corpus:
    """Small random corpora with unique URLs; stopwords appear in the text."""
    page_count = draw(st.integers(1, 8))
    pages = []
    for index in range(page_count):
        pages.append(
            WebPage(
                url=f"https://site{index}.example/page",
                title=draw(sentence),
                body=draw(sentence),
            )
        )
    return Corpus(pages)


@st.composite
def corpora_and_queries(draw) -> tuple[Corpus, str]:
    """A corpus and a query mixing its own terms (repeated at will),
    stopwords and terms it does not hold."""
    corpus = draw(corpora())
    vocabulary = sorted({token for page in corpus for token in page.indexable_tokens()})
    query_term = st.one_of(st.sampled_from(vocabulary), term)
    return corpus, " ".join(draw(st.lists(query_term, min_size=1, max_size=8)))


def reference_scores(corpus: Corpus, query_tokens: list[str]) -> dict[str, float]:
    """Plain per-query BM25: {url: score} for every page holding a query term,
    summed in query-term order."""
    pages = [(page.url, Counter(page.indexable_tokens())) for page in corpus]
    lengths = {url: sum(counts.values()) for url, counts in pages}
    avg_length = (sum(lengths.values()) / len(lengths) if lengths else 0.0) or 1.0
    scores: dict[str, float] = {}
    for token in query_tokens:
        holding = [(url, counts[token]) for url, counts in pages if token in counts]
        if not holding:
            continue
        weight = STOPWORD_WEIGHT if token in STOPWORDS else 1.0
        idf = math.log(1.0 + (len(pages) - len(holding) + 0.5) / (len(holding) + 0.5))
        for url, tf in holding:
            denominator = tf + K1 * (1.0 - B + B * lengths[url] / avg_length)
            contribution = idf * tf * (K1 + 1.0) / denominator
            scores[url] = scores.get(url, 0.0) + weight * contribution
    return scores


class TestIndexProperties:
    @settings(max_examples=50)
    @given(corpora())
    def test_every_title_token_is_indexed(self, corpus):
        engine = SearchEngine(corpus)
        for page in corpus:
            for token in tokenize(page.title):
                assert page.url in {result.url for result in engine.search(token, k=len(corpus))}


class TestBM25Properties:
    @settings(max_examples=100)
    @given(corpora_and_queries())
    def test_search_equals_the_reference_scores_exactly(self, corpus_and_query):
        corpus, query = corpus_and_query
        results = SearchEngine(corpus).search(query, k=len(corpus))
        assert {result.url: result.score for result in results} == reference_scores(
            corpus, tokenize(query)
        )
        assert [(result.rank, result.url) for result in results] == [
            (rank, url)
            for rank, (_, url) in enumerate(
                sorted((-result.score, result.url) for result in results), start=1
            )
        ]

    @settings(max_examples=50)
    @given(corpora(), sentence)
    def test_scores_are_positive_and_only_for_matching_documents(self, corpus, query):
        tokens = set(tokenize(query))
        results = SearchEngine(corpus).search(query, k=len(corpus))
        for result in results:
            assert result.score > 0.0
            assert tokens & set(corpus[result.url].indexable_tokens())


class TestEngineProperties:
    @settings(max_examples=40)
    @given(corpora(), sentence, st.integers(1, 5))
    def test_results_are_ranked_and_bounded(self, corpus, query, k):
        engine = SearchEngine(corpus)
        results = engine.search(query, k=k)
        assert len(results) <= k
        scores = [result.score for result in results]
        assert scores == sorted(scores, reverse=True)
        assert [result.rank for result in results] == list(range(1, len(results) + 1))
        assert len({result.url for result in results}) == len(results)

    @settings(max_examples=40)
    @given(corpora(), sentence, st.integers(1, 5))
    def test_top_k_is_the_head_of_the_full_ranking(self, corpus, query, k):
        engine = SearchEngine(corpus)
        full = engine.search(query, k=len(corpus))
        assert engine.search(query, k=k) == full[:k]

    @settings(max_examples=40)
    @given(corpora(), sentence)
    def test_search_is_deterministic(self, corpus, query):
        # Two engines over one corpus, so the second answer is not a memo hit.
        assert SearchEngine(corpus).search(query, k=5) == SearchEngine(corpus).search(query, k=5)

    @settings(max_examples=40)
    @given(corpora())
    def test_every_title_query_finds_its_page(self, corpus):
        engine = SearchEngine(corpus)
        for page in corpus:
            results = engine.search(page.title, k=len(corpus))
            assert page.url in {result.url for result in results}
