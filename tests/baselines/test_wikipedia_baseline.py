"""Tests for the Wikipedia-redirect baseline."""

import pytest

from repro.baselines.wikipedia import WikipediaSynonymFinder
from repro.simulation.aliases import build_alias_table
from repro.simulation.catalog import camera_catalog, movie_catalog
from repro.simulation.wikipedia import SimulatedWikipedia

from tests.conftest import table_row


@pytest.fixture(scope="module")
def movie_setup():
    catalog = movie_catalog(size=50, seed=31)
    table = build_alias_table(catalog, seed=31)
    wiki = SimulatedWikipedia.build(catalog, table)
    return catalog, table, wiki


class TestWikipediaBaseline:
    def test_covered_entity_produces_redirect_synonyms(self, movie_setup):
        catalog, _table, wiki = movie_setup
        finder = WikipediaSynonymFinder(wiki, catalog)
        covered_id = next(e.entity_id for e in catalog if wiki.redirects_for(e.entity_id))
        entity = catalog[covered_id]
        entry = finder.find_one(entity.canonical_name)
        assert entry.has_synonyms
        assert set(entry.synonyms) == {s.lower() for s in wiki.redirects_for(covered_id)}

    def test_unknown_string_produces_nothing(self, movie_setup):
        catalog, _table, wiki = movie_setup
        finder = WikipediaSynonymFinder(wiki, catalog)
        assert not finder.find_one("not an entity at all").has_synonyms

    def test_find_covers_whole_catalog(self, movie_setup):
        catalog, _table, wiki = movie_setup
        finder = WikipediaSynonymFinder(wiki, catalog)
        result = finder.find(entity.canonical_name for entity in catalog)
        assert len(result) == len(catalog)
        assert result.hit_count == wiki.article_count

    def test_results_deduplicated_and_normalized(self, movie_setup):
        catalog, _table, wiki = movie_setup
        finder = WikipediaSynonymFinder(wiki, catalog)
        for entity in catalog:
            entry = finder.find_one(entity.canonical_name)
            assert len(entry.synonyms) == len(set(entry.synonyms))

    def test_low_camera_coverage_flows_through(self):
        catalog = camera_catalog(size=300, seed=13)
        table = build_alias_table(catalog, seed=13)
        wiki = SimulatedWikipedia.build(catalog, table)
        finder = WikipediaSynonymFinder(wiki, catalog)
        result = finder.find(entity.canonical_name for entity in catalog)
        assert table_row(result).hit_ratio < 0.35
