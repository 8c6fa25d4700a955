"""Tests for the hot-swappable match service."""

import pytest

from repro.matching.index import DictionaryEntry
from repro.matching.matcher import MatchOutcome, QueryMatcher
from repro.serving.artifact import SynonymArtifact, compile_dictionary
from repro.serving.delta import delta_path_for, diff_delta
from repro.serving.service import MatchService


@pytest.fixture()
def dictionary():
    return [
        DictionaryEntry("indiana jones and the kingdom of the crystal skull", "m1", "canonical"),
        DictionaryEntry("indy 4", "m1", "mined", 120.0),
        DictionaryEntry("madagascar 2", "m2", "mined", 200.0),
    ]


@pytest.fixture()
def artifact_path(dictionary, tmp_path):
    path = tmp_path / "dict.synart"
    compile_dictionary(dictionary, path, version="gen-1")
    return path


@pytest.fixture()
def service(artifact_path):
    return MatchService(artifact_path)


class TestMatching:
    def test_match_equals_plain_matcher(self, service, dictionary):
        matcher = QueryMatcher(SynonymArtifact.from_entries(dictionary))
        for query in ("indy 4 near san fran", "Indy 4!", "madagascar 2 dvd", "nothing here", ""):
            assert service.match(query) == matcher.match(query)

    def test_cache_hit_returns_identical_result(self, service):
        first = service.match("indy 4 near san fran")
        second = service.match("indy 4 near san fran")
        assert first == second
        assert service.stats.cache_hits == 1

    def test_cache_shared_across_raw_spellings(self, service):
        # Both raw strings normalize to "indy 4", so the second is a hit —
        # but each response still echoes its own raw query.
        first = service.match("Indy 4!")
        second = service.match("indy   4")
        assert service.stats.cache_hits == 1
        assert first.query == "Indy 4!"
        assert second.query == "indy   4"
        assert first.entity_ids == second.entity_ids == frozenset({"m1"})

    def test_match_many_preserves_order(self, service):
        queries = ["indy 4", "unknown", "madagascar 2"]
        assert [m.query for m in service.match_many(queries)] == queries

    def test_cache_disabled(self, artifact_path):
        service = MatchService(artifact_path, cache_size=0)
        service.match("indy 4")
        service.match("indy 4")
        assert service.stats.cache_hits == 0
        assert service.stats.queries == 2

    def test_cache_evicts_least_recently_used(self, artifact_path):
        service = MatchService(artifact_path, cache_size=2)
        service.match("indy 4")        # cached: [indy 4]
        service.match("madagascar 2")  # cached: [indy 4, madagascar 2]
        service.match("other query")   # evicts indy 4
        service.match("indy 4")        # miss again
        assert service.stats.cache_hits == 0

    def test_fuzzy_can_be_disabled(self, artifact_path):
        strict = MatchService(artifact_path, enable_fuzzy=False)
        assert strict.match("indiana jnoes 4").outcome is MatchOutcome.NO_MATCH

    def test_invalid_cache_size_rejected(self, artifact_path):
        with pytest.raises(ValueError):
            MatchService(artifact_path, cache_size=-1)


class TestHotSwap:
    def test_reload_picks_up_new_artifact(self, service, artifact_path):
        assert service.match("new synonym").matched is False
        compile_dictionary(
            [DictionaryEntry("new synonym", "m9", "mined", 10.0)],
            artifact_path,
            version="gen-2",
        )
        manifest = service.reload()
        assert manifest.version == "gen-2"
        assert service.manifest.version == "gen-2"
        assert service.match("new synonym").entity_ids == {"m9"}
        assert service.stats.reloads == 1

    def test_reload_clears_cached_answers(self, service, artifact_path):
        service.match("new synonym")
        compile_dictionary(
            [DictionaryEntry("new synonym", "m9", "mined", 10.0)],
            artifact_path,
        )
        service.reload()
        # A stale cached NO_MATCH would mask the new entry.
        assert service.match("new synonym").matched is True

    def test_maybe_reload_only_when_file_changes(self, service, artifact_path, dictionary):
        assert service.maybe_reload() is False
        compile_dictionary(dictionary, artifact_path, version="gen-2")
        assert service.maybe_reload() is True
        assert service.manifest.version == "gen-2"
        assert service.maybe_reload() is False

    def test_reload_with_explicit_path(self, service, dictionary, tmp_path):
        other = tmp_path / "other.synart"
        compile_dictionary(dictionary, other, version="other-v")
        assert service.reload(other).version == "other-v"
        assert service.artifact_path == other

    def test_service_over_loaded_artifact_requires_path_to_reload(self, artifact_path):
        service = MatchService(SynonymArtifact.load(artifact_path))
        assert service.artifact_path is None
        assert service.maybe_reload() is False
        with pytest.raises(ValueError):
            service.reload()
        assert service.reload(artifact_path).version == "gen-1"


class TestDeltaHotSwap:
    """maybe_reload prefers applying a delta sidecar over a full cold load."""

    @staticmethod
    def _publish_delta(artifact_path, new_dictionary, version):
        diff_delta(
            SynonymArtifact.load(artifact_path),
            new_dictionary,
            delta_path_for(artifact_path),
            version=version,
        )

    @staticmethod
    def _grown_dictionary(dictionary):
        return dictionary + [DictionaryEntry("delta synonym", "m9", "mined", 7.0)]

    def test_maybe_reload_applies_sidecar(self, service, artifact_path, dictionary):
        assert service.match("delta synonym").matched is False
        self._publish_delta(artifact_path, self._grown_dictionary(dictionary), "gen-2")
        assert service.maybe_reload() is True
        assert service.manifest.version == "gen-2"
        assert service.match("delta synonym").entity_ids == {"m9"}
        stats = service.stats
        assert stats.deltas_applied == 1
        assert stats.reloads == 0  # no full cold load happened
        assert service.maybe_reload() is False  # sidecar unchanged

    def test_construction_folds_in_pending_sidecar(self, artifact_path, dictionary):
        self._publish_delta(artifact_path, self._grown_dictionary(dictionary), "gen-2")
        service = MatchService(artifact_path)
        assert service.manifest.version == "gen-2"
        assert service.stats.deltas_applied == 1
        assert service.match("delta synonym").matched is True

    def test_delta_clears_cached_answers(self, service, artifact_path, dictionary):
        assert service.match("delta synonym").matched is False  # cached NO_MATCH
        self._publish_delta(artifact_path, self._grown_dictionary(dictionary), "gen-2")
        service.maybe_reload()
        assert service.match("delta synonym").matched is True

    def test_mismatched_sidecar_skipped_and_not_retried(
        self, service, artifact_path, dictionary
    ):
        # A sidecar chained on gen-2 while the service still serves gen-1:
        # it must be skipped (once), and the service keeps serving.
        grown = self._grown_dictionary(dictionary)
        other_base = artifact_path.parent / "other.synart"
        compile_dictionary(grown, other_base, version="gen-2")
        diff_delta(
            SynonymArtifact.load(other_base),
            grown + [DictionaryEntry("even newer", "m10")],
            delta_path_for(artifact_path),
            version="gen-3",
        )
        assert service.maybe_reload() is False
        assert service.manifest.version == "gen-1"
        assert service.stats.deltas_skipped == 1
        assert service.match("indy 4").matched is True
        # The stamp was remembered: the next poll does not re-read the file.
        assert service.maybe_reload() is False
        assert service.stats.deltas_skipped == 1

    def test_full_republish_beats_stale_sidecar(self, service, artifact_path, dictionary):
        self._publish_delta(artifact_path, self._grown_dictionary(dictionary), "gen-2")
        assert service.maybe_reload() is True
        # Publisher falls back to a full publish (different content) while
        # the old sidecar is still lying around.
        compile_dictionary(
            dictionary + [DictionaryEntry("full republish", "m11")],
            artifact_path,
            version="gen-3",
        )
        assert service.maybe_reload() is True
        assert service.manifest.version == "gen-3"
        assert service.match("full republish").matched is True
        assert service.stats.reloads == 1


class TestStats:
    def test_counters(self, service):
        service.match("indy 4")
        service.match("indy 4")
        service.match("other")
        stats = service.stats
        assert stats.queries == 3
        assert stats.cache_hits == 1
        assert stats.cache_misses == 2
        assert stats.hit_rate == pytest.approx(1 / 3)

    def test_idle_hit_rate(self, service):
        assert service.stats.hit_rate == 0.0
