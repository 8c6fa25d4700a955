"""Equivalence pin: compiled-artifact matching ≡ the reference dictionary.

The acceptance bar for the serving pipeline is that the compiled
:class:`SynonymArtifact` (or the :class:`MatchService` over it) answers
exactly as the independent in-memory reference, :class:`SynonymDictionary`,
does over the same entries: every :class:`EntityMatch` field is identical
across the full simulated world, for exact hits, fuzzy recoveries and
misses alike.
"""

import pytest

from repro.clicklog.log import ClickLog, SearchLog
from repro.clicklog.records import ClickRecord
from repro.core.config import MinerConfig
from repro.core.incremental import IncrementalSynonymMiner
from repro.core.pipeline import SynonymMiner
from repro.matching.dictionary import SynonymDictionary
from repro.matching.index import entries_from_mining_result
from repro.matching.matcher import QueryMatcher
from repro.serving.artifact import SynonymArtifact, compile_dictionary
from repro.serving.service import MatchService


@pytest.fixture(scope="module")
def mined_world(toy_world):
    miner = SynonymMiner(
        click_log=toy_world.click_log,
        search_log=toy_world.search_log,
        config=MinerConfig.paper_default(),
    )
    return miner.mine(toy_world.canonical_queries())


@pytest.fixture(scope="module")
def dictionary(mined_world, toy_world):
    return SynonymDictionary.from_mining_result(mined_world, toy_world.catalog)


@pytest.fixture(scope="module")
def artifact(mined_world, toy_world, tmp_path_factory):
    path = tmp_path_factory.mktemp("equivalence") / "world.synart"
    compile_dictionary(entries_from_mining_result(mined_world, toy_world.catalog), path)
    return SynonymArtifact.load(path)


@pytest.fixture(scope="module")
def live_queries(toy_world):
    """Every query the world ever saw, plus adversarial extras."""
    queries = list(toy_world.canonical_queries())
    queries.extend(record.query for record in toy_world.search_log.iter_records())
    queries.extend(record.query for record in toy_world.click_log.iter_records())
    queries.extend(
        [
            "",
            "   ",
            "!!",
            "completely unrelated query",
            "quinn lyraa kingdm",  # misspelled: exercises the fuzzy path
            "THE KINGDOM!!",
        ]
    )
    # Deduplicate but keep order so failures are reproducible.
    return list(dict.fromkeys(queries))


class TestFullWorldEquivalence:
    def test_artifact_reproduces_dictionary_index(self, artifact, dictionary):
        assert len(artifact) == len(dictionary)
        assert list(artifact) == list(dictionary)
        assert artifact.max_entry_tokens == dictionary.max_entry_tokens

    def test_artifact_matching_identical(self, artifact, dictionary, live_queries):
        reference = QueryMatcher(dictionary)
        compiled = QueryMatcher(artifact)
        for query in live_queries:
            assert compiled.match(query) == reference.match(query), query

    def test_match_service_identical_cached_and_uncached(
        self, artifact, dictionary, live_queries
    ):
        reference = QueryMatcher(dictionary)
        service = MatchService(artifact)
        expected = [reference.match(query) for query in live_queries]
        assert service.match_many(live_queries) == expected  # cold cache
        assert service.match_many(live_queries) == expected  # warm cache
        assert service.stats.cache_hits > 0

    def test_fuzzy_disabled_still_identical(self, artifact, dictionary, live_queries):
        reference = QueryMatcher(dictionary, enable_fuzzy=False)
        compiled = QueryMatcher(artifact, enable_fuzzy=False)
        for query in live_queries:
            assert compiled.match(query) == reference.match(query), query

    def test_coverage_identical(self, artifact, dictionary, live_queries):
        assert QueryMatcher(artifact).coverage(live_queries) == pytest.approx(
            QueryMatcher(dictionary).coverage(live_queries)
        )


class TestIncrementalPublish:
    @staticmethod
    def _fresh_miner(toy_world):
        # The incremental miner ingests into its logs; clone them so the
        # session-scoped world stays pristine for other tests.
        return IncrementalSynonymMiner(
            search_log=SearchLog(toy_world.search_log.iter_records()),
            click_log=ClickLog(toy_world.click_log.iter_records()),
            config=MinerConfig.paper_default(),
        )

    def test_generation_stamped_into_manifest(self, toy_world, tmp_path):
        values = toy_world.canonical_queries()[:5]
        miner = self._fresh_miner(toy_world)
        miner.track(values)
        miner.refresh()
        assert miner.generation == 1

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

    def test_published_artifact_matches_in_memory_dictionary(self, toy_world, tmp_path):
        values = toy_world.canonical_queries()[:8]
        miner = self._fresh_miner(toy_world)
        miner.track(values)
        miner.refresh()
        path = tmp_path / "inc.synart"
        miner.publish(toy_world.catalog, path)

        dictionary = SynonymDictionary.from_mining_result(miner.result, toy_world.catalog)
        artifact = SynonymArtifact.load(path)
        reference = QueryMatcher(dictionary)
        compiled = QueryMatcher(artifact)
        for query in values + ["unknown query", ""]:
            assert compiled.match(query) == reference.match(query), query
