"""Tests for the synthetic web corpus generator."""

import pytest

from repro.simulation.aliases import build_alias_table
from repro.simulation.catalog import movie_catalog
from repro.simulation.webgen import (
    MAX_PAGES_PER_ENTITY,
    MIN_PAGES_PER_ENTITY,
    WebCorpusGenerator,
    WebGenConfig,
)
from repro.text.normalize import normalize


@pytest.fixture(scope="module")
def catalog():
    return movie_catalog(size=25, seed=4)


@pytest.fixture(scope="module")
def alias_table(catalog):
    return build_alias_table(catalog, seed=4)


@pytest.fixture(scope="module")
def corpus(catalog, alias_table):
    config = WebGenConfig(list_page_count=5, background_page_count=7, seed=9)
    return WebCorpusGenerator(config).generate(catalog, alias_table)


def _pages_about(corpus, entity_id):
    return [page for page in corpus if page.entity_id == entity_id]


class TestGeneratedCorpus:
    def test_every_entity_has_pages_within_bounds(self, corpus, catalog):
        for entity in catalog:
            pages = _pages_about(corpus, entity.entity_id)
            assert MIN_PAGES_PER_ENTITY <= len(pages) <= MAX_PAGES_PER_ENTITY

    def test_popular_entities_get_more_pages(self, corpus, catalog):
        ranked = sorted(catalog, key=lambda entity: -entity.popularity)
        most_popular = len(_pages_about(corpus, ranked[0].entity_id))
        least_popular = len(_pages_about(corpus, ranked[-1].entity_id))
        assert most_popular >= least_popular

    def test_entity_pages_mention_canonical_name(self, corpus, catalog):
        for entity in list(catalog)[:5]:
            for page in _pages_about(corpus, entity.entity_id):
                assert normalize(entity.canonical_name) in normalize(page.title + " " + page.body)

    def test_some_pages_embed_aliases(self, corpus, catalog, alias_table):
        embedded = 0
        for entity in catalog:
            synonyms = alias_table.synonyms_of(entity.entity_id)
            for page in _pages_about(corpus, entity.entity_id):
                body = normalize(page.body)
                if any(synonym in body for synonym in synonyms):
                    embedded += 1
        assert embedded > 0

    def test_list_and_background_pages_present(self, corpus):
        urls = corpus.urls
        assert sum(1 for url in urls if "listicles.example.com" in url) == 5
        assert sum(1 for url in urls if "magazine.example.com" in url) == 7

    def test_list_pages_have_no_entity_id(self, corpus):
        for url in corpus.urls:
            if "listicles" in url or "magazine" in url:
                assert corpus[url].entity_id is None

    def test_unique_urls(self, corpus):
        assert len(corpus.urls) == len(set(corpus.urls))

    def test_deterministic(self, catalog, alias_table):
        config = WebGenConfig(list_page_count=3, background_page_count=3, seed=77)
        first = WebCorpusGenerator(config).generate(catalog, alias_table)
        second = WebCorpusGenerator(config).generate(catalog, alias_table)
        assert first.urls == second.urls
        assert [page.body for page in first] == [page.body for page in second]
