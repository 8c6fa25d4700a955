"""Tests for the one sweep (:func:`run_quality`) on the shared toy world.

``toy_rows`` holds the grid's movies points with the toy world standing in
for movies.  Shapes asserted here are not repeated in
``tests/integration/test_experiment_shapes.py``, and the reverse.
"""

from collections import Counter

import pytest

from repro.core.config import MinerConfig
from repro.core.pipeline import SynonymMiner
from repro.eval.experiments import (
    GRID,
    ICR_CURVES,
    ICR_VALUES,
    IPC_VALUES,
    MEASURES,
    NOISE_WORLDS,
    PREFIX_WORLDS,
    TABLE1_WORLDS,
    run_quality,
)
from repro.eval.labeling import GroundTruthOracle
from repro.eval.metrics import precision, weighted_precision
from repro.eval.reporting import row_at

GRID_WORLDS = ("movies", "cameras", *PREFIX_WORLDS, *NOISE_WORLDS)


class TestGrid:
    def test_grid_lists_each_point_once_in_order(self):
        assert list(GRID) == sorted(set(GRID))
        assert {world for world, *_ in GRID} == set(GRID_WORLDS)

    def test_only_movies_varies_the_surrogate_k(self):
        assert sorted({k for world, k, *_ in GRID if world == "movies"}) == [3, 5, 10]
        assert {(world, k) for world, k, *_ in GRID if world != "movies"} == {
            (world, 10) for world in GRID_WORLDS[1:]
        }


class TestRunQuality:
    def test_each_world_and_k_is_mined_exactly_once(self, toy_world, monkeypatch):
        mined = Counter()
        real_mine = SynonymMiner.mine

        def counting_mine(self, values):
            mined[self.config.surrogate_k] += 1
            return real_mine(self, values)

        monkeypatch.setattr(SynonymMiner, "mine", counting_mine)
        rows = run_quality(dict.fromkeys(GRID_WORLDS, toy_world))

        # movies at k 3, 5 and 10; the other ten worlds once each.
        assert mined == {3: 1, 5: 1, 10: len(GRID_WORLDS)}
        assert sum(mined.values()) == len({(world, k) for world, k, *_ in GRID}) == 13
        assert len(rows) == len(GRID) + 2 * len(TABLE1_WORLDS)

    def test_worlds_not_given_are_skipped(self, toy_rows):
        assert {row.world for row in toy_rows} == {"movies"}
        assert len(toy_rows) == sum(world == "movies" for world, *_ in GRID) + 2

    def test_rows_are_sorted_by_key(self, toy_rows):
        assert [row.key for row in toy_rows] == sorted(row.key for row in toy_rows)

    def test_us_rows_carry_their_miner_config(self, toy_rows, toy_world):
        for row in toy_rows:
            if row.method == "Us":
                config = MinerConfig(
                    surrogate_k=row.surrogate_k, ipc_threshold=row.ipc, icr_threshold=row.icr
                )
                assert row.fingerprint == config.fingerprint()
            else:
                assert (row.surrogate_k, row.ipc, row.icr, row.fingerprint) == (None,) * 4
            assert row.seed == toy_world.config.seed
            assert row.originals == len(toy_world.catalog)
            assert row.click_volume == toy_world.click_log.total_click_volume()

    def test_reselected_point_equals_a_direct_mine(self, toy_rows, toy_world):
        # Each point is re-filtered from one open-threshold mine; it must
        # score exactly what mining at that point does.
        oracle = GroundTruthOracle(toy_world.catalog, toy_world.alias_table)
        for k, ipc, icr in ((10, 4, 0.1), (5, 4, 0.1), (10, 6, 0.5)):
            direct = SynonymMiner(
                click_log=toy_world.click_log,
                search_log=toy_world.search_log,
                config=MinerConfig(surrogate_k=k, ipc_threshold=ipc, icr_threshold=icr),
            ).mine(toy_world.canonical_queries())
            row = row_at(toy_rows, "movies", k=k, ipc=ipc, icr=icr)
            assert (row.hits, row.synonyms) == (direct.hit_count, direct.synonym_count)
            assert row.precision == precision(direct, oracle)
            assert row.weighted_precision == weighted_precision(direct, oracle, toy_world.click_log)


class TestIPCSweep:
    @pytest.fixture(scope="class")
    def sweep(self, toy_rows):
        return [row_at(toy_rows, "movies", ipc=ipc, icr=0.0) for ipc in IPC_VALUES]

    def test_points_cover_requested_thresholds(self, sweep):
        assert [point.ipc for point in sweep] == list(range(2, 11))
        assert {point.icr for point in sweep} == {0.0}

    def test_synonym_count_decreases_with_threshold(self, sweep):
        counts = [point.synonyms for point in sweep]
        assert counts == sorted(counts, reverse=True)

    def test_coverage_decreases_with_threshold(self, sweep):
        coverage = [point.coverage_increase for point in sweep]
        assert coverage == sorted(coverage, reverse=True)

    def test_metrics_in_valid_ranges(self, toy_rows):
        for point in toy_rows:
            assert 0.0 <= point.precision <= 1.0
            assert 0.0 <= point.weighted_precision <= 1.0
            assert point.coverage_increase >= 0.0


class TestICRSweep:
    @pytest.fixture(scope="class")
    def curves(self, toy_rows):
        return {
            ipc: [row_at(toy_rows, "movies", ipc=ipc, icr=icr) for icr in ICR_VALUES]
            for ipc in ICR_CURVES
        }

    def test_curves_per_ipc_value(self, curves):
        assert set(curves) == {2, 4, 6}
        assert all(len(curve) == len(ICR_VALUES) == 11 for curve in curves.values())

    def test_synonyms_decrease_with_icr(self, curves):
        for curve in curves.values():
            counts = [point.synonyms for point in curve]
            assert counts == sorted(counts, reverse=True)

    def test_higher_ipc_curve_has_fewer_synonyms(self, curves):
        assert curves[4][0].synonyms <= curves[2][0].synonyms


class TestTable1:
    def test_three_methods_reported(self, toy_rows):
        methods = {row.method for row in toy_rows if row.ipc in (4, None) and row.icr in (0.1, None)}
        assert methods == {"Us", "Wiki", "Walk(0.8)"}

    def test_row_lookup(self, toy_rows, toy_world):
        assert row_at(toy_rows, "movies", "Us").originals == len(toy_world.catalog)
        assert row_at(toy_rows, "movies", "Wiki").method == "Wiki"
        with pytest.raises(KeyError, match="nonexistent"):
            row_at(toy_rows, "nonexistent")

    def test_our_method_beats_wikipedia_expansion(self, toy_rows):
        us, wiki = row_at(toy_rows, "movies"), row_at(toy_rows, "movies", "Wiki")
        assert us.synonyms > wiki.synonyms
        assert us.expansion_ratio > wiki.expansion_ratio

    def test_ratios_within_bounds(self, toy_rows):
        for row in toy_rows:
            assert 0.0 <= row.hit_ratio <= 1.0
            assert row.expansion_ratio >= 1.0 or row.synonyms == 0


class TestAblations:
    def test_surrogate_k_ablation_points(self, toy_rows):
        # A larger surrogate set can only widen the candidate pool.
        synonyms = [row_at(toy_rows, "movies", k=k).synonyms for k in (3, 5, 10)]
        assert synonyms == sorted(synonyms)

    def test_measure_ablation_order_and_effect(self, toy_rows):
        points = {
            label: row_at(toy_rows, "movies", ipc=ipc, icr=icr) for label, ipc, icr in MEASURES
        }
        assert set(points) == {"neither", "ipc-only", "icr-only", "both"}
        assert points["both"].synonyms <= points["ipc-only"].synonyms
        assert points["both"].synonyms <= points["icr-only"].synonyms
        assert points["neither"].synonyms >= points["ipc-only"].synonyms
        assert points["both"].precision >= points["neither"].precision
