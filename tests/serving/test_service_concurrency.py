"""Thread-safety pins for :class:`MatchService`.

The daemon (:mod:`repro.server`) drives one service from many request
threads plus a watcher thread reloading mid-traffic.  Before the service
grew its lock, concurrent callers could lose counter increments and, worse,
corrupt the cache's ``OrderedDict`` (``move_to_end`` on a key evicted by a
racing ``popitem``).  These tests hammer exactly those interleavings:

* many threads matching a head-heavy query mix through a deliberately tiny
  LRU (constant eviction churn), with the exact query count pinned;
* the same traffic with ``reload()`` swapping states mid-flight — every
  result must still be field-for-field correct.
"""

import threading

import pytest

from repro.matching.index import DictionaryEntry
from repro.matching.matcher import QueryMatcher
from repro.serving.artifact import SynonymArtifact, compile_dictionary
from repro.serving.service import MatchService

THREADS = 8
QUERIES_PER_THREAD = 120


@pytest.fixture()
def dictionary():
    return [
        DictionaryEntry("indiana jones and the kingdom of the crystal skull", "m1", "canonical"),
        DictionaryEntry("indy 4", "m1", "mined", 120.0),
        DictionaryEntry("madagascar 2", "m2", "mined", 200.0),
        DictionaryEntry("shared name", "m1", "mined", 5.0),
        DictionaryEntry("shared name", "m2", "mined", 9.0),
    ]


@pytest.fixture()
def artifact_path(dictionary, tmp_path):
    path = tmp_path / "dict.synart"
    compile_dictionary(dictionary, path, version="gen-1")
    return path


def _query_mix():
    """A head-heavy mix: repeats (cache hits), spread (evictions), misses."""
    mix = []
    for i in range(QUERIES_PER_THREAD):
        if i % 3 == 0:
            mix.append("indy 4")
        elif i % 3 == 1:
            mix.append(f"madagascar 2 showing {i % 7}")
        else:
            mix.append(f"unmatched filler {i}")
    return mix


def _hammer(service, *, threads=THREADS, errors=None):
    """Run the mix on *threads* threads; collect (query, result) pairs."""
    results = [[] for _ in range(threads)]
    errors = errors if errors is not None else []
    barrier = threading.Barrier(threads)

    def worker(slot):
        mix = _query_mix()
        try:
            barrier.wait(timeout=10)
            for query in mix:
                results[slot].append((query, service.match(query)))
        except Exception as exc:  # pragma: no cover - the failure we pin against
            errors.append(exc)

    pool = [threading.Thread(target=worker, args=(slot,)) for slot in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(timeout=30)
    return results, errors


class TestConcurrentMatching:
    def test_no_lost_counter_increments(self, artifact_path):
        # cache_size=4 forces constant eviction churn through the
        # OrderedDict — the exact structure the lock protects.
        service = MatchService(artifact_path, cache_size=4)
        _, errors = _hammer(service)
        assert errors == []
        stats = service.stats
        assert stats.queries == THREADS * QUERIES_PER_THREAD
        assert stats.cache_hits + stats.cache_misses == stats.queries

    def test_results_identical_to_serial_matcher(self, artifact_path, dictionary):
        service = MatchService(artifact_path, cache_size=8)
        results, errors = _hammer(service)
        assert errors == []
        reference = QueryMatcher(SynonymArtifact.from_entries(dictionary))
        expected = {query: reference.match(query) for query in _query_mix()}
        for per_thread in results:
            for query, match in per_thread:
                assert match == expected[query], query

    def test_reload_mid_traffic(self, artifact_path, dictionary):
        """Hot swap under load: same dictionary republished as gen-2/gen-3.

        Identical content means every result stays pinned to the serial
        matcher regardless of which state served it, while reload() still
        exercises the real swap path (fresh artifact, matcher and cache).
        """
        service = MatchService(artifact_path, cache_size=4)
        stop = threading.Event()
        errors: list = []

        def reloader():
            generation = 2
            try:
                while not stop.is_set():
                    compile_dictionary(dictionary, artifact_path, version=f"gen-{generation}")
                    service.reload()
                    generation += 1
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        swapper = threading.Thread(target=reloader)
        swapper.start()
        try:
            results, errors_out = _hammer(service, errors=errors)
        finally:
            stop.set()
            swapper.join(timeout=30)
        assert errors == []
        reference = QueryMatcher(SynonymArtifact.from_entries(dictionary))
        expected = {query: reference.match(query) for query in _query_mix()}
        for per_thread in results:
            for query, match in per_thread:
                assert match == expected[query], query
        stats = service.stats
        assert stats.queries == THREADS * QUERIES_PER_THREAD
        assert stats.reloads >= 1

    def test_concurrent_maybe_reload_swaps_exactly_once(self, artifact_path, dictionary):
        """One republish, many pollers: exactly one cold load happens.

        The stamp is re-checked under the reload lock, so the watcher
        thread and an admin reload straddling the same republish cannot
        both discard the warm cache and re-verify the artifact.
        """
        service = MatchService(artifact_path)
        compile_dictionary(dictionary, artifact_path, version="gen-2")
        outcomes = []
        barrier = threading.Barrier(6)

        def poller():
            barrier.wait(timeout=10)
            outcomes.append(service.maybe_reload())

        pool = [threading.Thread(target=poller) for _ in range(6)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=30)
        assert sum(outcomes) == 1, outcomes
        assert service.stats.reloads == 1
        assert service.manifest.version == "gen-2"

    def test_concurrent_resolve_consistent_state(self, artifact_path):
        """resolve() pairs match and ranking from one captured state."""
        service = MatchService(artifact_path, cache_size=8)
        errors: list = []
        rankings: list = []

        def worker():
            try:
                for _ in range(50):
                    match, ranked = service.resolve("shared name")
                    rankings.append((match.entity_ids, [r.entity_id for r in ranked]))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        pool = [threading.Thread(target=worker) for _ in range(4)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=30)
        assert errors == []
        for entity_ids, ranked_ids in rankings:
            assert entity_ids == frozenset({"m1", "m2"})
            assert sorted(ranked_ids) == ["m1", "m2"]
