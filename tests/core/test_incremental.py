"""Tests for the incremental synonym miner."""

import pytest

from repro.clicklog.log import ClickLog, SearchLog
from repro.clicklog.records import ClickRecord, SearchRecord
from repro.core.config import MinerConfig
from repro.core.incremental import IncrementalSynonymMiner
from repro.core.pipeline import SynonymMiner

CANONICAL = "indiana jones and the kingdom of the crystal skull"
OTHER = "madagascar escape 2 africa"


@pytest.fixture()
def search_log():
    return SearchLog.from_tuples(
        [
            (CANONICAL, "https://studio.example.com/indy-4", 1),
            (CANONICAL, "https://wiki.example.org/indy-4", 2),
            (OTHER, "https://studio.example.com/madagascar-2", 1),
        ]
    )


@pytest.fixture()
def incremental(search_log):
    miner = IncrementalSynonymMiner(
        search_log=search_log,
        config=MinerConfig(ipc_threshold=2, icr_threshold=0.5),
    )
    miner.track([CANONICAL, OTHER])
    return miner


class TestTracking:
    def test_newly_tracked_values_are_dirty(self, incremental):
        assert incremental.dirty_values == {CANONICAL, OTHER}
        assert incremental.tracked_values == [CANONICAL, OTHER]

    def test_tracking_twice_is_idempotent(self, incremental):
        incremental.track([CANONICAL])
        assert incremental.tracked_values.count(CANONICAL) == 1

    def test_refresh_clears_dirty_set(self, incremental):
        refreshed = incremental.refresh()
        assert set(refreshed) == {CANONICAL, OTHER}
        assert incremental.dirty_values == set()
        assert incremental.refresh() == []


class TestIngestion:
    def test_clicks_on_surrogates_mark_entity_dirty(self, incremental):
        incremental.refresh()
        ingested = incremental.ingest_clicks(
            [
                ClickRecord("indy 4", "https://studio.example.com/indy-4", 30),
                ClickRecord("indy 4", "https://wiki.example.org/indy-4", 20),
            ]
        )
        assert ingested == 2
        assert incremental.dirty_values == {CANONICAL}

    def test_clicks_elsewhere_do_not_dirty_anything(self, incremental):
        incremental.refresh()
        incremental.ingest_clicks(
            [ClickRecord("weather", "https://unrelated.example.com", 5)]
        )
        assert incremental.dirty_values == set()

    def test_new_search_data_marks_entity_dirty(self, incremental):
        incremental.refresh()
        incremental.ingest_search(
            [SearchRecord(CANONICAL, "https://reviews.example.com/indy-4", 3)]
        )
        assert CANONICAL in incremental.dirty_values

    def test_search_data_for_tracked_but_unrefreshed_value_dirties_it(self, incremental):
        late = "a value tracked before its search data arrives"
        incremental.refresh()
        incremental.track([late])
        incremental.ingest_search(
            [
                SearchRecord(late, "https://late.example.com/page", 1),
                SearchRecord("never tracked", "https://late.example.com/page", 1),
            ]
        )
        # Membership is "tracked", not "already mined": the value has no
        # cached entry yet and must still be picked up.
        assert incremental.dirty_values == {late}
        assert incremental.refresh() == [late]
        assert incremental.result[late].surrogates == ("https://late.example.com/page",)

    def test_candidate_volume_change_dirties_dependents(self, incremental):
        # After "indy 4" becomes a candidate of CANONICAL, clicks from
        # "indy 4" anywhere change its ICR denominator and must dirty it.
        incremental.ingest_clicks(
            [
                ClickRecord("indy 4", "https://studio.example.com/indy-4", 30),
                ClickRecord("indy 4", "https://wiki.example.org/indy-4", 20),
            ]
        )
        incremental.refresh()
        incremental.ingest_clicks(
            [ClickRecord("indy 4", "https://elsewhere.example.com", 100)]
        )
        assert CANONICAL in incremental.dirty_values


class TestRefreshCorrectness:
    def test_refresh_matches_batch_miner(self, incremental, search_log):
        clicks = [
            ClickRecord("indy 4", "https://studio.example.com/indy-4", 60),
            ClickRecord("indy 4", "https://wiki.example.org/indy-4", 30),
            ClickRecord("indiana jones", "https://studio.example.com/indy-4", 20),
            ClickRecord("indiana jones", "https://fan.example.net/raiders", 70),
            ClickRecord("madagascar 2", "https://studio.example.com/madagascar-2", 40),
        ]
        incremental.ingest_clicks(clicks)
        incremental.refresh()

        batch = SynonymMiner(
            click_log=ClickLog(clicks),
            search_log=search_log,
            config=MinerConfig(ipc_threshold=2, icr_threshold=0.5),
        ).mine([CANONICAL, OTHER])

        for canonical in (CANONICAL, OTHER):
            assert set(incremental.result[canonical].synonyms) == set(batch[canonical].synonyms)

    def test_synonyms_appear_after_traffic_arrives(self, incremental):
        incremental.refresh()
        assert incremental.result[CANONICAL].synonyms == []

        incremental.ingest_clicks(
            [
                ClickRecord("indy 4", "https://studio.example.com/indy-4", 60),
                ClickRecord("indy 4", "https://wiki.example.org/indy-4", 30),
            ]
        )
        refreshed = incremental.refresh()
        assert refreshed == [CANONICAL]
        assert incremental.result[CANONICAL].synonyms == ["indy 4"]

    def test_untouched_entity_entry_not_recomputed(self, incremental):
        incremental.ingest_clicks(
            [ClickRecord("madagascar 2", "https://studio.example.com/madagascar-2", 10)]
        )
        refreshed = incremental.refresh()
        assert refreshed == sorted({CANONICAL, OTHER})  # initial full mine
        incremental.ingest_clicks(
            [ClickRecord("indy 4", "https://studio.example.com/indy-4", 5)]
        )
        assert incremental.refresh() == [CANONICAL]

    def test_refresh_all_forces_every_entity(self, incremental):
        incremental.refresh()
        assert set(incremental.refresh_all()) == {CANONICAL, OTHER}


class TestDependencyEdgeMaintenance:
    """The value→candidates reverse map keeps edge cleanup proportional to
    the entity's own candidate list and leaves no stale edges behind."""

    def test_edges_rebuilt_not_accumulated(self, incremental):
        incremental.ingest_clicks(
            [
                ClickRecord("indy 4", "https://studio.example.com/indy-4", 60),
                ClickRecord("indy 4", "https://wiki.example.org/indy-4", 30),
            ]
        )
        incremental.refresh()
        assert CANONICAL in incremental._candidate_to_values["indy 4"]
        assert "indy 4" in incremental._value_to_candidates[CANONICAL]
        # Re-refreshing must not duplicate or leak edges.
        incremental.ingest_clicks(
            [ClickRecord("indy 4", "https://studio.example.com/indy-4", 5)]
        )
        incremental.refresh()
        assert incremental._candidate_to_values["indy 4"] == {CANONICAL}

    def test_forward_and_reverse_maps_stay_symmetric(self, incremental):
        incremental.ingest_clicks(
            [
                ClickRecord("indy 4", "https://studio.example.com/indy-4", 60),
                ClickRecord("madagascar 2", "https://studio.example.com/madagascar-2", 40),
            ]
        )
        incremental.refresh()
        for value, candidates in incremental._value_to_candidates.items():
            for candidate in candidates:
                assert value in incremental._candidate_to_values[candidate]
        for candidate, values in incremental._candidate_to_values.items():
            assert values, f"empty dependent set left behind for {candidate!r}"
            for value in values:
                assert candidate in incremental._value_to_candidates[value]

    def test_batch_workers_is_accepted_and_ignored(self, search_log):
        # The frozen perf harness passes it; it selects nothing any more.
        miner = IncrementalSynonymMiner(search_log=search_log, batch_workers=2)
        miner.track([CANONICAL])
        assert miner.refresh() == [CANONICAL]
