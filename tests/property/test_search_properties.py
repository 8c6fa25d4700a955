"""Property-based tests for the search substrate (index and BM25 ranking)."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.search.bm25 import BM25Scorer
from repro.search.documents import Corpus, WebPage
from repro.search.engine import SearchEngine
from repro.search.index import InvertedIndex
from repro.text.tokenize import tokenize

word = st.text(alphabet=string.ascii_lowercase, min_size=2, max_size=7)
sentence = st.lists(word, min_size=1, max_size=12).map(" ".join)


@st.composite
def corpora(draw) -> Corpus:
    """Small random corpora with unique URLs."""
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


class TestIndexProperties:
    @settings(max_examples=50)
    @given(corpora())
    def test_document_frequency_matches_postings(self, corpus):
        index = InvertedIndex.from_corpus(corpus)
        for term in index.terms():
            postings = index.postings(term)
            assert index.document_frequency(term) == len(postings)
            assert len({posting.doc_id for posting in postings}) == len(postings)

    @settings(max_examples=50)
    @given(corpora())
    def test_document_lengths_equal_token_counts(self, corpus):
        index = InvertedIndex.from_corpus(corpus)
        for page in corpus:
            doc_id = index.doc_id_of(page.url)
            assert index.document_length(doc_id) == len(page.indexable_tokens())

    @settings(max_examples=50)
    @given(corpora())
    def test_every_title_token_is_indexed(self, corpus):
        index = InvertedIndex.from_corpus(corpus)
        for page in corpus:
            doc_id = index.doc_id_of(page.url)
            for token in tokenize(page.title):
                assert any(posting.doc_id == doc_id for posting in index.postings(token))


class TestBM25Properties:
    @settings(max_examples=50)
    @given(corpora(), sentence)
    def test_scores_are_positive_and_only_for_matching_documents(self, corpus, query):
        index = InvertedIndex.from_corpus(corpus)
        scorer = BM25Scorer(index)
        tokens = tokenize(query)
        scores = scorer.score_all(tokens)
        matching = {posting.doc_id for token in tokens for posting in index.postings(token)}
        assert set(scores) <= matching
        assert all(score > 0.0 for score in scores.values())

    @settings(max_examples=50)
    @given(corpora())
    def test_idf_is_monotone_in_document_frequency(self, corpus):
        index = InvertedIndex.from_corpus(corpus)
        scorer = BM25Scorer(index)
        terms = sorted(index.terms())
        for left in terms[:10]:
            for right in terms[:10]:
                if index.document_frequency(left) < index.document_frequency(right):
                    assert scorer.idf(left) >= scorer.idf(right)


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
    @given(corpora(), sentence)
    def test_search_is_deterministic(self, corpus, query):
        engine = SearchEngine(corpus)
        assert engine.search(query, k=5) == engine.search(query, k=5)

    @settings(max_examples=40)
    @given(corpora())
    def test_every_title_query_finds_its_page(self, corpus):
        engine = SearchEngine(corpus)
        for page in corpus:
            results = engine.search(page.title, k=len(corpus))
            assert page.url in {result.url for result in results}
