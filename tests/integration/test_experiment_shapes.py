"""Integration tests asserting the qualitative shapes of the paper's results.

The reproduction cannot match the paper's absolute numbers (the substrate is
a simulator, not Bing's logs), but the *shapes* — who wins, which direction
each threshold moves precision and coverage — must hold.  These tests read
those shapes off the quality grid's rows for the toy world, which is built
with the same generators as the paper-scale presets.  The monotone series
(synonyms and coverage against β, synonyms against γ) and the ablations are
asserted in ``tests/eval/test_experiments.py``.
"""

import pytest

from repro.baselines.randomwalk import RandomWalkSynonymFinder
from repro.baselines.wikipedia import WikipediaSynonymFinder
from repro.eval.experiments import ICR_CURVES, ICR_VALUES, IPC_VALUES
from repro.eval.reporting import row_at


class TestFigure2Shape:
    """Figure 2: raising the IPC threshold trades coverage for precision."""

    @pytest.fixture(scope="class")
    def sweep(self, toy_rows):
        return [row_at(toy_rows, "movies", ipc=ipc, icr=0.0) for ipc in IPC_VALUES]

    def test_precision_is_higher_at_high_ipc(self, sweep):
        assert sweep[-1].precision > sweep[0].precision

    def test_coverage_is_lower_at_high_ipc(self, sweep):
        assert sweep[-1].coverage_increase < sweep[0].coverage_increase

    def test_even_strict_threshold_keeps_some_coverage(self, toy_rows):
        # The paper highlights that even at IPC 10 coverage more than doubles;
        # on the toy world we only require the moderate settings to do so.
        assert row_at(toy_rows, "movies", ipc=4, icr=0.0).coverage_increase > 1.0


class TestFigure3Shape:
    """Figure 3: raising ICR raises weighted precision at any fixed IPC."""

    @pytest.fixture(scope="class")
    def curves(self, toy_rows):
        return {
            ipc: [row_at(toy_rows, "movies", ipc=ipc, icr=icr) for icr in ICR_VALUES]
            for ipc in ICR_CURVES
        }

    def test_weighted_precision_rises_with_icr(self, curves):
        for curve in curves.values():
            assert curve[-1].weighted_precision >= curve[0].weighted_precision

    def test_coverage_falls_with_icr(self, curves):
        for curve in curves.values():
            assert curve[-1].coverage_increase <= curve[0].coverage_increase

    def test_higher_ipc_starts_at_higher_precision(self, curves):
        assert curves[6][0].weighted_precision >= curves[2][0].weighted_precision


class TestTable1Shape:
    """Table I: the mined synonyms beat both baselines on expansion."""

    def test_us_has_highest_expansion(self, toy_rows):
        # Us against Wiki: TestTable1 in tests/eval/test_experiments.py.
        us, walk = row_at(toy_rows, "movies"), row_at(toy_rows, "movies", "Walk(0.8)")
        assert us.expansion_ratio >= walk.expansion_ratio

    def test_us_hit_ratio_at_least_wikipedias(self, toy_rows):
        assert row_at(toy_rows, "movies").hit_ratio >= row_at(toy_rows, "movies", "Wiki").hit_ratio


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

    def test_our_precision_reasonable_at_paper_operating_point(self, toy_rows):
        assert row_at(toy_rows, "movies").precision > 0.5
