"""Tests for the catalog miner's streaming surface and the click log's
profile cache (plus one test on the frozen harness's ``BatchMiner`` spelling).

The load-bearing guarantee is *equivalence*: ``mine``, ``mine_iter`` and the
incremental refresh must return results identical to the formula-level
reference — same entities, same key order, same scored candidate lists,
same selections.
"""

from __future__ import annotations

import pytest

from repro.clicklog.log import CacheStats, ClickLog, SearchLog
from repro.clicklog.records import ClickRecord, SearchRecord
from repro.core.config import MinerConfig
from repro.core.incremental import IncrementalSynonymMiner
from repro.core.pipeline import SynonymMiner

from tests.conftest import assert_mining_paths_agree, reference_entry


CONFIG = MinerConfig(ipc_threshold=2, icr_threshold=0.1)


def assert_results_identical(actual, expected):
    """Entity order, candidate order and every scored field must match."""
    assert list(actual.per_entity) == list(expected.per_entity)
    for canonical, expected_entry in expected.per_entity.items():
        entry = actual[canonical]
        assert entry.surrogates == expected_entry.surrogates
        assert entry.candidates == expected_entry.candidates
        assert entry.selected == expected_entry.selected


def shared_candidate_logs(entities: int = 40):
    """The production shape: broad head queries whose click footprint
    crosses many entities' surrogate hubs, so the same hot queries are
    candidates of every entity."""
    hub_urls = [f"https://hub{i}.example/very/long/portal/path" for i in range(20)]
    values = [f"entity {e:02d}" for e in range(entities)]
    search = SearchLog.from_tuples(
        (value, url, rank)
        for value in values
        for rank, url in enumerate(hub_urls[:10], start=1)
    )
    clicks = ClickLog.from_tuples(
        [(f"hot query {q}", url, 3) for q in range(8) for url in hub_urls]
        + [(value, hub_urls[0], 2) for value in values]
    )
    return search, clicks, values


class TestProfileCache:
    def test_memoization_counts_hits_and_misses(self, mini_click_log):
        log = mini_click_log
        log.candidate_profile("indy 4")
        log.candidate_profile("indy 4")
        log.candidate_profile("harrison ford")
        assert log.cache_stats == CacheStats(hits=1, misses=2)
        assert log.cache_stats.hit_rate == pytest.approx(1 / 3)
        assert log.candidate_profile("indy 4") is log.candidate_profile("indy 4")

    def test_add_invalidates_only_the_touched_query(self, mini_click_log):
        log = mini_click_log
        stale = log.candidate_profile("indy 4")
        kept = log.candidate_profile("harrison ford")
        log.add(ClickRecord("indy 4", "https://new.example/page", 7))
        fresh = log.candidate_profile("indy 4")
        assert fresh.total_clicks == stale.total_clicks + 7
        assert "https://new.example/page" in fresh.clicked_urls
        assert fresh.clicks_by_url == log.clicks_by_url("indy 4")
        # The profile handed out earlier is a snapshot, not a view.
        assert "https://new.example/page" not in stale.clicks_by_url
        assert log.candidate_profile("harrison ford") is kept

    def test_absent_queries_are_not_cached(self, mini_click_log):
        # The cache is bounded by the log's own queries: probing strings the
        # log has never seen must not grow it.
        log = mini_click_log
        for _ in range(2):
            profile = log.candidate_profile("never asked")
            assert (profile.clicked_urls, profile.total_clicks) == (frozenset(), 0)
        assert log.cache_stats == CacheStats(hits=0, misses=2)
        log.add(ClickRecord("never asked", "https://new.example/page", 3))
        assert log.candidate_profile("never asked").total_clicks == 3


class TestBatchEquivalence:
    def test_duplicate_and_raw_values_collapse_like_serial(self, toy_world):
        values = toy_world.canonical_queries()[:4]
        noisy = [values[0].upper()] + values + values[:2]
        miner = SynonymMiner(
            click_log=toy_world.click_log, search_log=toy_world.search_log, config=CONFIG
        )
        assert_results_identical(miner.mine(noisy), miner.mine(values))

    def test_every_path_agrees_on_shared_candidates(self):
        search_log, click_log, values = shared_candidate_logs()
        assert_mining_paths_agree(search_log, click_log, values, CONFIG)

    def test_every_path_respects_surrogate_k(self):
        # Ten hubs per entity in the Search Data, three allowed as surrogates.
        search_log, click_log, values = shared_candidate_logs(6)
        config = MinerConfig(surrogate_k=3, ipc_threshold=2, icr_threshold=0.1)
        assert_mining_paths_agree(search_log, click_log, values, config)
        result = SynonymMiner(click_log=click_log, search_log=search_log, config=config).mine(values)
        assert all(len(entry.surrogates) == 3 for entry in result)

    def test_synonym_miner_mine_shares_the_profile_cache(self):
        search_log, click_log, values = shared_candidate_logs()
        miner = SynonymMiner(click_log=click_log, search_log=search_log, config=CONFIG)
        miner.mine(values)
        # Eight hot queries are candidates of all 40 entities: everything
        # after each one's first profile is a hit.
        cold = click_log.cache_stats
        assert cold.hits > cold.misses
        # The cache lives on the log, so a second miner over it starts warm.
        SynonymMiner(click_log=click_log, search_log=search_log, config=CONFIG).mine(values)
        assert (click_log.cache_stats - cold).misses == 0

    def test_cache_hits_on_shared_candidates(self, toy_world):
        batch = SynonymMiner(
            click_log=toy_world.click_log,
            search_log=toy_world.search_log,
            config=CONFIG,
        )
        batch.mine(toy_world.canonical_queries())
        stats = batch.last_run_stats
        assert stats is not None
        assert stats.entities == len(toy_world.canonical_queries())
        assert stats.cache.lookups > 0
        # The toy world's entities share head queries, so the cross-entity
        # cache must see real hits.
        assert stats.cache.hits > 0

    def test_empty_catalog(self, toy_world):
        batch = SynonymMiner(
            click_log=toy_world.click_log, search_log=toy_world.search_log, config=CONFIG
        )
        result = batch.mine([])
        assert len(result) == 0
        assert batch.last_run_stats.entities == 0


class TestMineIter:
    def test_mine_iter_streams_in_input_order_and_dedupes(self):
        search_log, click_log, values = shared_candidate_logs(4)
        miner = SynonymMiner(click_log=click_log, search_log=search_log, config=CONFIG)
        noisy = [values[0].upper()] + values + values[:2]
        stream = miner.mine_iter(noisy)
        first = next(stream)
        assert first == reference_entry(search_log, click_log, values[0], CONFIG)
        # Lazy, entity by entity: after one item the log has served exactly
        # one entity's profile lookups, and the run is not over.
        alone = ClickLog(click_log.iter_records())
        SynonymMiner(click_log=alone, search_log=search_log, config=CONFIG).mine_one(values[0])
        assert click_log.cache_stats == alone.cache_stats
        assert miner.last_run_stats is None
        rest = list(stream)
        assert click_log.cache_stats.lookups > alone.cache_stats.lookups
        # Duplicate raw values yield once, in first-occurrence order.
        assert [entry.canonical for entry in [first] + rest] == values
        stats = miner.last_run_stats
        assert stats.entities == len(values)
        assert stats.cache == click_log.cache_stats

    def test_streaming_matches_collected(self, toy_world):
        miner = SynonymMiner(
            click_log=toy_world.click_log,
            search_log=toy_world.search_log,
            config=CONFIG,
        )
        values = toy_world.canonical_queries()[:7]
        streamed = {entry.canonical: entry for entry in miner.mine_iter(values)}
        collected = miner.mine(values)
        assert streamed.keys() == collected.per_entity.keys()
        for canonical, entry in streamed.items():
            assert entry.candidates == collected[canonical].candidates


class TestValidation:
    def test_defaults_are_the_in_process_loop(self):
        # Mined over the caller's own log: the run's cache counters are that
        # log's counter movement.
        search_log, click_log, values = shared_candidate_logs()
        batch = SynonymMiner(click_log=click_log, search_log=search_log, config=CONFIG)
        before = click_log.cache_stats
        batch.mine(values)
        stats = batch.last_run_stats
        assert stats.entities == len(values)
        assert stats.cache == click_log.cache_stats - before
        assert stats.cache.lookups > 0

    def test_harness_spelling_is_accepted_and_ignored(self):
        # benchmarks/perf/offline.py (frozen) constructs the miner this way;
        # both keywords are accepted and select nothing.  The only test on
        # the alias: it goes when ROADMAP open item 1 frees the spelling.
        from repro.core.batch import BatchMiner

        search_log, click_log, values = shared_candidate_logs()
        logs = {"click_log": click_log, "search_log": search_log, "config": CONFIG}
        harness = BatchMiner(**logs, workers=2, backend="thread")
        mined = harness.mine(values)
        assert list(mined) == [
            reference_entry(search_log, click_log, value, CONFIG) for value in values
        ]
        default = SynonymMiner(**logs)
        assert_results_identical(default.mine(values), mined)
        assert harness.last_run_stats.entities == default.last_run_stats.entities

    def test_requires_click_log(self):
        with pytest.raises(TypeError):
            SynonymMiner()

    def test_requires_search_log_with_click_log(self, toy_world):
        # Without Search Data every entity would silently mine to nothing.
        with pytest.raises(ValueError, match="Search Data"):
            SynonymMiner(click_log=toy_world.click_log)

    def test_logs_are_read_in_place_between_runs(self):
        # No snapshot: a record added after construction is mined by the
        # next run, from a fresh profile.
        search_log, click_log, values = shared_candidate_logs(4)
        batch = SynonymMiner(click_log=click_log, search_log=search_log, config=CONFIG)
        before = batch.mine(values)[values[0]].candidate("hot query 0")
        click_log.add(ClickRecord("hot query 0", "https://elsewhere.example", 40))
        after = batch.mine(values)[values[0]].candidate("hot query 0")
        assert after.clicks == before.clicks + 40
        assert after.icr < before.icr

    def test_cache_survives_across_miners_on_one_log(self, toy_world):
        click_log = ClickLog(toy_world.click_log.iter_records())  # private and cold
        logs = {"click_log": click_log, "search_log": toy_world.search_log, "config": CONFIG}
        values = toy_world.canonical_queries()[:6]
        first_miner = SynonymMiner(**logs)
        first_miner.mine(values)
        first = first_miner.last_run_stats.cache
        second_miner = SynonymMiner(**logs)
        second_miner.mine(values)
        second = second_miner.last_run_stats.cache
        # A second job over the same catalog is served entirely from the
        # cache that survived on the log, not on any miner.
        assert first.misses > 0
        assert second.misses == 0
        assert second.hits == first.lookups


class TestIncrementalEquivalence:
    def _streamed_world(self):
        search_log = SearchLog()
        incremental = IncrementalSynonymMiner(search_log=search_log, config=CONFIG)
        entities = [f"entity number {i}" for i in range(8)]
        for i, canonical in enumerate(entities):
            for rank in range(1, 4):
                search_log.add(
                    SearchRecord(canonical, f"https://site{i}.example/p{rank}", rank)
                )
        incremental.track(entities)
        incremental.refresh()
        # Stream several days of clicks: aliases concentrated on surrogates,
        # a hub query spraying across many entities, then a late volume shift.
        for i in range(8):
            incremental.ingest_clicks(
                [
                    ClickRecord(f"alias {i}", f"https://site{i}.example/p1", 30),
                    ClickRecord(f"alias {i}", f"https://site{i}.example/p2", 20),
                    ClickRecord("hub query", f"https://site{i}.example/p1", 5),
                ]
            )
            incremental.refresh()
        incremental.ingest_clicks([ClickRecord("hub query", "https://elsewhere.example", 200)])
        incremental.refresh()
        return incremental, entities

    @staticmethod
    def _assert_matches_reference(incremental, entities):
        for canonical in entities:
            assert incremental.result[canonical] == reference_entry(
                incremental.search_log, incremental.click_log, canonical, CONFIG
            ), canonical

    def test_matches_from_scratch_batch_mine(self):
        incremental, entities = self._streamed_world()
        # From scratch means a rebuilt log: nothing cached, nothing stale.
        scratch = SynonymMiner(
            click_log=ClickLog(incremental.click_log.iter_records()),
            search_log=incremental.search_log,
            config=CONFIG,
        ).mine(entities)
        assert incremental.result.per_entity.keys() == scratch.per_entity.keys()
        for canonical in scratch.per_entity:
            assert incremental.result[canonical] == scratch[canonical]
        self._assert_matches_reference(incremental, entities)

    def test_second_round_on_a_hot_shared_candidate(self):
        # "hub query" is a candidate of every entity and its profile is
        # cached by now; a second ingest -> refresh round that moves its
        # volume must be scored from a fresh profile (fails if add() forgets
        # to invalidate the touched query).
        incremental, entities = self._streamed_world()
        before = {c: incremental.result[c].candidate("hub query") for c in entities}
        incremental.ingest_clicks(
            [
                ClickRecord("hub query", "https://site3.example/p2", 40),
                ClickRecord("hub query", "https://site3.example/p3", 40),
            ]
        )
        assert set(incremental.refresh()) == set(entities)
        for canonical in entities:
            after = incremental.result[canonical].candidate("hub query")
            assert after.clicks == before[canonical].clicks + 80
        assert incremental.result[entities[3]].candidate("hub query").ipc == 3
        self._assert_matches_reference(incremental, entities)
