"""Tests for the incremental synonym miner."""

import pytest

from repro.clicklog.log import ClickLog, SearchLog
from repro.clicklog.records import ClickRecord, SearchRecord
from repro.core.config import MinerConfig
from repro.core.incremental import IncrementalSynonymMiner
from repro.core.pipeline import SynonymMiner
from repro.serving.service import MatchService

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

    def test_tracking_twice_is_idempotent(self, incremental):
        incremental.refresh()
        incremental.track([CANONICAL, "Indiana Jones and the Kingdom of the Crystal Skull"])
        assert incremental.dirty_values == set()
        assert incremental.refresh() == []

    def test_batch_workers_is_accepted_and_ignored(self, search_log):
        # The frozen perf harness passes it; it selects nothing any more.
        miner = IncrementalSynonymMiner(search_log=search_log, batch_workers=2)
        miner.track([CANONICAL])
        assert miner.refresh() == [CANONICAL]

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

    def test_value_tracked_after_a_refresh_is_dirtied_by_clicks_on_its_surrogates(
        self, search_log
    ):
        late = "a value tracked after the first refresh"
        search_log.add(SearchRecord(late, "https://late.example.com/page", 1))
        miner = IncrementalSynonymMiner(search_log=search_log)
        miner.track([CANONICAL])
        miner.refresh()
        miner.track([late])
        assert miner.refresh() == [late]
        miner.ingest_clicks([ClickRecord("late alias", "https://late.example.com/page", 3)])
        assert miner.dirty_values == {late}

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

    def test_own_query_volume_change_does_not_dirty_the_entity(self, incremental):
        # Definition 6 drops u from its own candidates, so u's clicks
        # elsewhere move no ICR of u.
        incremental.ingest_clicks(
            [ClickRecord(CANONICAL, "https://studio.example.com/indy-4", 30)]
        )
        incremental.refresh()
        incremental.ingest_clicks(
            [ClickRecord(CANONICAL, "https://elsewhere.example.com", 100)]
        )
        assert incremental.dirty_values == set()


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


class TestPublish:
    def test_generation_stamped_into_manifest(self, toy_world, tmp_path):
        values = toy_world.canonical_queries()[:5]
        # The miner ingests into its logs; clone them so the session-scoped
        # world stays pristine for other tests.
        miner = IncrementalSynonymMiner(
            search_log=SearchLog(toy_world.search_log.iter_records()),
            click_log=ClickLog(toy_world.click_log.iter_records()),
            config=MinerConfig(),
        )
        miner.track(values)
        miner.refresh()

        path = tmp_path / "incremental.synart"
        manifest = miner.publish(toy_world.catalog, path)
        assert manifest.version == "gen-1"
        assert manifest.config_fingerprint == miner.config.fingerprint()

        # Re-publishing after another refresh bumps the version; a service
        # watching the path hot-swaps to it without a restart.
        service = MatchService(path)
        assert service.manifest.version == "gen-1"
        url = toy_world.search_log.top_urls(values[0], k=1)[0]
        miner.ingest_clicks([ClickRecord(values[0], url, 5)])
        miner.refresh()
        miner.publish(toy_world.catalog, path)
        assert service.maybe_reload() is True
        assert service.manifest.version == "gen-2"
