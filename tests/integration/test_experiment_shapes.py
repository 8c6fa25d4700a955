"""Integration tests asserting the qualitative shapes of the paper's results.

The reproduction cannot match the paper's absolute numbers (the substrate is
a simulator, not Bing's logs), but the *shapes* — who wins, which direction
each threshold moves precision and coverage — must hold.  These tests encode
those shapes for the toy world, which is built with the same generators as
the paper-scale presets.
"""

import pytest

from repro.baselines.randomwalk import RandomWalkSynonymFinder
from repro.baselines.wikipedia import WikipediaSynonymFinder
from repro.core.config import MinerConfig
from repro.core.pipeline import SynonymMiner
from repro.eval.experiments import run_icr_sweep, run_ipc_sweep, run_table1
from repro.eval.labeling import GroundTruthOracle
from repro.eval.metrics import precision


@pytest.fixture(scope="module")
def oracle(toy_world):
    return GroundTruthOracle(toy_world.catalog, toy_world.alias_table)


class TestFigure2Shape:
    """Figure 2: raising the IPC threshold trades coverage for precision."""

    @pytest.fixture(scope="class")
    def sweep(self, toy_world):
        return run_ipc_sweep(toy_world, ipc_values=(2, 4, 6, 8, 10))

    def test_precision_is_higher_at_high_ipc(self, sweep):
        assert sweep.points[-1].precision > sweep.points[0].precision

    def test_coverage_is_lower_at_high_ipc(self, sweep):
        assert sweep.points[-1].coverage_increase < sweep.points[0].coverage_increase

    def test_even_strict_threshold_keeps_some_coverage(self, sweep):
        # The paper highlights that even at IPC 10 coverage more than doubles;
        # on the toy world we only require the moderate settings to do so.
        moderate = next(point for point in sweep.points if point.ipc_threshold == 4)
        assert moderate.coverage_increase > 1.0


class TestFigure3Shape:
    """Figure 3: raising ICR raises weighted precision at any fixed IPC."""

    @pytest.fixture(scope="class")
    def sweep(self, toy_world):
        return run_icr_sweep(toy_world, ipc_values=(2, 4, 6), icr_values=(0.01, 0.4, 0.9))

    def test_weighted_precision_rises_with_icr(self, sweep):
        for curve in sweep.curves.values():
            assert curve[-1].weighted_precision >= curve[0].weighted_precision

    def test_coverage_falls_with_icr(self, sweep):
        for curve in sweep.curves.values():
            assert curve[-1].coverage_increase <= curve[0].coverage_increase

    def test_higher_ipc_starts_at_higher_precision(self, sweep):
        start_precision = {ipc: curve[0].weighted_precision for ipc, curve in sweep.curves.items()}
        assert start_precision[6] >= start_precision[2]


class TestTable1Shape:
    """Table I: the mined synonyms beat both baselines on expansion."""

    @pytest.fixture(scope="class")
    def table(self, toy_world):
        return run_table1([toy_world])

    def test_us_has_highest_expansion(self, table, toy_world):
        dataset = toy_world.config.dataset
        us = table.row(dataset, "Us")
        wiki = table.row(dataset, "Wiki")
        walk = table.row(dataset, "Walk(0.8)")
        assert us.expansion_ratio >= wiki.expansion_ratio
        assert us.expansion_ratio >= walk.expansion_ratio

    def test_us_hit_ratio_at_least_wikipedias(self, table, toy_world):
        dataset = toy_world.config.dataset
        assert table.row(dataset, "Us").hit_ratio >= table.row(dataset, "Wiki").hit_ratio


class TestBaselineWeaknesses:
    """The qualitative failure modes the paper attributes to each baseline."""

    def test_walk_needs_the_canonical_query(self, toy_world):
        finder = RandomWalkSynonymFinder(toy_world.click_log)
        entry = finder.find_one("a canonical string nobody ever typed")
        assert not entry.has_synonyms

    def test_wikipedia_limited_by_coverage(self, toy_world):
        finder = WikipediaSynonymFinder(toy_world.wikipedia, toy_world.catalog)
        result = finder.find(toy_world.canonical_queries())
        assert result.hit_count <= toy_world.wikipedia.article_count

    def test_our_precision_reasonable_at_paper_operating_point(self, toy_world, oracle):
        miner = SynonymMiner(
            click_log=toy_world.click_log,
            search_log=toy_world.search_log,
            config=MinerConfig.paper_default(),
        )
        result = miner.mine(toy_world.canonical_queries())
        assert precision(result, oracle) > 0.5
