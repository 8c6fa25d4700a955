"""Tests for the evaluation metrics on handcrafted results."""

import pytest

from repro.clicklog.log import ClickLog
from repro.core.types import EntitySynonyms, MiningResult, SynonymCandidate
from repro.eval.experiments import QualityRow
from repro.eval.labeling import GroundTruthOracle
from repro.eval.metrics import coverage_increase, precision, weighted_precision
from repro.simulation.aliases import AliasKind, AliasRecord, AliasTable
from repro.simulation.catalog import Entity, EntityCatalog


@pytest.fixture()
def setup():
    catalog = EntityCatalog(
        "movie",
        [
            Entity("m1", "Indiana Jones and the Kingdom of the Crystal Skull", "movie"),
            Entity("m2", "Madagascar Escape 2 Africa", "movie"),
        ],
    )
    table = AliasTable(
        [
            AliasRecord("m1", "indy 4", AliasKind.SYNONYM),
            AliasRecord("m1", "indiana jones", AliasKind.HYPERNYM),
            AliasRecord("m2", "madagascar 2", AliasKind.SYNONYM),
        ]
    )
    oracle = GroundTruthOracle(catalog, table)

    result = MiningResult()
    result.add(
        EntitySynonyms(
            canonical="indiana jones and the kingdom of the crystal skull",
            surrogates=(),
            selected=[
                SynonymCandidate(query="indy 4", ipc=5, icr=0.9, clicks=80),      # true
                SynonymCandidate(query="indiana jones", ipc=4, icr=0.2, clicks=20),  # false
            ],
        )
    )
    result.add(
        EntitySynonyms(
            canonical="madagascar escape 2 africa",
            surrogates=(),
            selected=[SynonymCandidate(query="madagascar 2", ipc=6, icr=0.95, clicks=100)],  # true
        )
    )

    click_log = ClickLog.from_tuples(
        [
            ("indy 4", "https://a.example", 80),
            ("indiana jones", "https://a.example", 20),
            ("madagascar 2", "https://b.example", 100),
            ("indiana jones and the kingdom of the crystal skull", "https://a.example", 50),
            ("madagascar escape 2 africa", "https://b.example", 50),
        ]
    )
    return oracle, result, click_log


class TestPrecision:
    def test_unweighted(self, setup):
        oracle, result, _log = setup
        assert precision(result, oracle) == pytest.approx(2 / 3)

    def test_weighted(self, setup):
        oracle, result, log = setup
        # true weight 180, total weight 200.
        assert weighted_precision(result, oracle, log) == pytest.approx(0.9)

    def test_empty_result_is_perfect(self, setup):
        oracle, _result, log = setup
        empty = MiningResult()
        assert precision(empty, oracle) == 1.0
        assert weighted_precision(empty, oracle, log) == 1.0

    def test_unseen_synonym_gets_unit_weight(self, setup):
        oracle, _result, log = setup
        result = MiningResult()
        result.add(
            EntitySynonyms(
                canonical="madagascar escape 2 africa",
                surrogates=(),
                selected=[SynonymCandidate(query="never logged query", ipc=1, icr=0.5, clicks=0)],
            )
        )
        assert weighted_precision(result, oracle, log) == 0.0


class TestCoverageIncrease:
    def test_relative_gain(self, setup):
        _oracle, result, log = setup
        # Canonical volume 100; synonym volume 200 → +200%.
        assert coverage_increase(result, log) == pytest.approx(2.0)

    def test_zero_canonical_volume(self, setup):
        _oracle, result, _log = setup
        log = ClickLog.from_tuples([("indy 4", "https://a.example", 30)])
        assert coverage_increase(result, log) == pytest.approx(30.0)

    def test_no_synonyms_no_gain(self, setup):
        _oracle, _result, log = setup
        empty_selection = MiningResult()
        empty_selection.add(
            EntitySynonyms(canonical="madagascar escape 2 africa", surrogates=(), selected=[])
        )
        assert coverage_increase(empty_selection, log) == 0.0


class TestTableMetrics:
    def test_hit_and_expansion(self, setup):
        _oracle, result, _log = setup
        assert result.hit_ratio() == 1.0
        assert result.expansion_ratio() == pytest.approx((3 + 2) / 2)

    def test_summary_zero_originals(self):
        summary = QualityRow(
            world="movies", seed=11, method="Wiki", surrogate_k=None, ipc=None, icr=None,
            fingerprint=None, originals=0, hits=0, synonyms=0, precision=1.0,
            weighted_precision=1.0, coverage_increase=0.0, click_volume=0,
        )
        assert summary.hit_ratio == 0.0
        assert summary.expansion_ratio == 0.0
