"""Tests for the simulated Wikipedia."""

import pytest

from repro.simulation.aliases import AliasKind, build_alias_table
from repro.simulation.catalog import camera_catalog, movie_catalog
from repro.simulation.wikipedia import SimulatedWikipedia, WikipediaConfig


class TestConfig:
    def test_invalid_coverage(self):
        with pytest.raises(ValueError):
            WikipediaConfig(head_coverage=1.2)

    def test_invalid_redirect_bounds(self):
        with pytest.raises(ValueError):
            WikipediaConfig(min_redirects=5, max_redirects=2)

    def test_invalid_exponent(self):
        with pytest.raises(ValueError):
            WikipediaConfig(popularity_exponent=0.0)


class TestMovieCoverage:
    @pytest.fixture(scope="class")
    def wikipedia(self):
        catalog = movie_catalog(size=100, seed=2)
        table = build_alias_table(catalog, seed=2)
        return SimulatedWikipedia.build(catalog, table), catalog, table

    def test_high_coverage_for_movies(self, wikipedia):
        wiki, catalog, _table = wikipedia
        assert wiki.article_count / len(catalog) > 0.85

    def test_redirects_are_true_synonyms(self, wikipedia):
        wiki, catalog, table = wikipedia
        for entity in catalog:
            for redirect in wiki.redirects_for(entity.entity_id):
                assert table.kind_of(redirect, entity.entity_id) is AliasKind.SYNONYM


class TestCameraCoverage:
    def test_low_coverage_for_cameras(self):
        catalog = camera_catalog(size=882, seed=3)
        table = build_alias_table(catalog, seed=3)
        wiki = SimulatedWikipedia.build(catalog, table)
        ratio = wiki.article_count / len(catalog)
        assert 0.05 < ratio < 0.30

    def test_coverage_biased_to_popular_entities(self):
        catalog = camera_catalog(size=400, seed=3)
        table = build_alias_table(catalog, seed=3)
        wiki = SimulatedWikipedia.build(catalog, table)
        ranked = sorted(catalog, key=lambda entity: -entity.popularity)
        head = sum(1 for entity in ranked[:100] if wiki.redirects_for(entity.entity_id))
        tail = sum(1 for entity in ranked[-100:] if wiki.redirects_for(entity.entity_id))
        assert head > tail

    def test_entry_for_uncovered_entity_is_none(self):
        catalog = camera_catalog(size=100, seed=3)
        table = build_alias_table(catalog, seed=3)
        wiki = SimulatedWikipedia.build(catalog, table)
        uncovered = [e for e in catalog if not wiki.redirects_for(e.entity_id)]
        assert uncovered
        assert wiki.article_count == len(catalog) - len(uncovered)

    def test_default_config_chosen_by_domain(self):
        catalog = camera_catalog(size=200, seed=3)
        table = build_alias_table(catalog, seed=3)
        default = SimulatedWikipedia.build(catalog, table)
        assert default.article_count / len(catalog) < 0.5
