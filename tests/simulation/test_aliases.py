"""Tests for the ground-truth alias table."""

import pytest

from repro.simulation.aliases import AliasKind, AliasRecord, AliasTable, build_alias_table
from repro.simulation.catalog import camera_catalog, movie_catalog
from repro.text.normalize import normalize


class TestAliasRecord:
    def test_weight_must_be_positive(self):
        with pytest.raises(ValueError):
            AliasRecord(entity_id="e", alias="x", kind=AliasKind.SYNONYM, weight=0.0)

    def test_alias_must_be_nonempty(self):
        with pytest.raises(ValueError):
            AliasRecord(entity_id="e", alias="", kind=AliasKind.SYNONYM)


class TestAliasTable:
    def test_aliases_stored_normalized(self):
        table = AliasTable()
        table.add(AliasRecord("e1", "Indy 4!", AliasKind.SYNONYM))
        assert table.synonyms_of("e1") == {"indy 4"}

    def test_kind_of_lookup(self):
        table = AliasTable()
        table.add(AliasRecord("e1", "indy 4", AliasKind.SYNONYM))
        table.add(AliasRecord("e1", "indiana jones", AliasKind.HYPERNYM))
        assert table.kind_of("Indy 4", "e1") is AliasKind.SYNONYM
        assert table.kind_of("indiana jones", "e1") is AliasKind.HYPERNYM
        assert table.kind_of("unknown", "e1") is None
        assert table.kind_of("indy 4", "other-entity") is None


class TestBuildAliasTableMovies:
    @pytest.fixture(scope="class")
    def catalog(self):
        return movie_catalog(size=40, seed=3)

    @pytest.fixture(scope="class")
    def table(self, catalog):
        return build_alias_table(catalog, seed=5)

    def test_every_entity_has_synonyms(self, catalog, table):
        for entity in catalog:
            assert table.synonyms_of(entity.entity_id), entity.canonical_name

    def test_canonical_never_listed_as_alias(self, catalog, table):
        for entity in catalog:
            assert entity.normalized_name not in table.synonyms_of(entity.entity_id)

    def test_franchise_name_is_hypernym(self, catalog, table):
        for entity in catalog:
            franchise = entity.attributes.get("franchise")
            if not franchise:
                continue
            assert table.kind_of(franchise, entity.entity_id) is AliasKind.HYPERNYM

    def test_sequel_shortform_is_synonym(self, catalog, table):
        sequels = [
            entity
            for entity in catalog
            if entity.attributes.get("franchise") and int(entity.attributes["installment"]) >= 2
        ]
        assert sequels
        for entity in sequels:
            short = normalize(
                f"{entity.attributes['franchise']} {entity.attributes['installment']}"
            )
            kind = table.kind_of(short, entity.entity_id)
            assert kind in (AliasKind.SYNONYM, AliasKind.AMBIGUOUS)

    def test_all_records_normalized(self, table):
        for record in table:
            assert record.alias == normalize(record.alias)

    def test_deterministic(self, catalog):
        first = build_alias_table(catalog, seed=9)
        second = build_alias_table(catalog, seed=9)
        assert [(r.entity_id, r.alias, r.kind) for r in first] == [
            (r.entity_id, r.alias, r.kind) for r in second
        ]


class TestBuildAliasTableCameras:
    @pytest.fixture(scope="class")
    def catalog(self):
        return camera_catalog(size=120, seed=8)

    @pytest.fixture(scope="class")
    def table(self, catalog):
        return build_alias_table(catalog, seed=6)

    def test_codename_is_synonym_when_unique(self, catalog, table):
        found_codename_synonym = False
        for entity in catalog:
            codename = entity.attributes.get("codename")
            if not codename:
                continue
            kind = table.kind_of(codename, entity.entity_id)
            assert kind in (AliasKind.SYNONYM, AliasKind.AMBIGUOUS)
            if kind is AliasKind.SYNONYM:
                found_codename_synonym = True
        assert found_codename_synonym

    def test_brand_is_hypernym(self, catalog, table):
        for entity in catalog:
            brand = entity.attributes.get("brand")
            assert table.kind_of(brand, entity.entity_id) is AliasKind.HYPERNYM

    def test_shared_shortforms_are_demoted_to_ambiguous(self, catalog, table):
        # A bare model number claimed by several cameras must not stay a
        # synonym of any of them (Definition 1 requires a unique referent).
        claims = {}
        for record in table:
            if record.kind is AliasKind.SYNONYM:
                claims.setdefault(record.alias, set()).add(record.entity_id)
        for alias, owners in claims.items():
            assert len(owners) == 1, f"synonym {alias!r} claimed by {owners}"

    def test_unsupported_domain_rejected(self):
        from repro.simulation.catalog import Entity, EntityCatalog

        catalog = EntityCatalog("gadget", [Entity("g1", "Widget 3000", "gadget")])
        with pytest.raises(ValueError, match="no alias generator"):
            build_alias_table(catalog)
