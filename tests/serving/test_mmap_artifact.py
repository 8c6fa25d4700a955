"""mmap-mode serving: equivalence, ownership, and hot-swap/fold behavior.

The mmap read path must be invisible to callers: identical match results,
identical iteration order, identical priors and state hash — pinned here
against the heap path.  On top of that the ownership rules are pinned
(deterministic close, refcount fallback) and the :class:`MatchService`
"delta = republish + remap" fold behavior: a sidecar is folded to
``<artifact>.applied`` and remapped, a restart re-folds, and a full
republish sweeps the stale fold file.

Last, the one fact that is the reason the mmap path exists and that no
``benchmarks/perf`` workload can see (none runs ``--procs``): two worker
processes mapping one artifact share its pages (:class:`TestSharedPages`).
"""

import os

import pytest

from repro.clicklog.log import ClickLog
from repro.matching.dictionary import DictionaryEntry
from repro.server.client import ServerClient
from repro.server.daemon import match_payload, reuse_port_supported
from repro.server.supervisor import ServerSupervisor
from repro.serving.artifact import SynonymArtifact, compile_dictionary, compile_entries
from repro.serving.delta import delta_path_for, diff_delta, fold_path_for
from repro.serving.service import MatchService
from repro.storage.artifact import ArtifactError, ArtifactMapping, read_artifact

from tests.conftest import SRC_DIR, daemon_server

ENTRIES = [
    DictionaryEntry("indiana jones and the kingdom of the crystal skull", "m1", "canonical"),
    DictionaryEntry("indy 4", "m1", "mined", 120.0),
    DictionaryEntry("indiana jones 4", "m1", "mined", 80.0),
    DictionaryEntry("madagascar escape 2 africa", "m2", "canonical"),
    DictionaryEntry("madagascar 2", "m2", "mined", 200.0),
    DictionaryEntry("shared name", "m1", "mined", 5.0),
    DictionaryEntry("shared name", "m2", "mined", 9.0),
]

QUERIES = [
    "indy 4",
    "indiana jones 4 trailer",
    "madagascar 2",
    "shared name",
    "indiana jnoes 4",  # fuzzy fallback
    "no such movie at all",
]

CLICKS = ClickLog.from_tuples(
    [
        ("indy 4", "https://a.example", 120),
        ("madagascar 2", "https://b.example", 200),
        ("shared name", "https://c.example", 9),
    ]
)


@pytest.fixture()
def artifact_path(tmp_path):
    path = tmp_path / "dict.synart"
    compile_dictionary(ENTRIES, path, version="gen-1", click_log=CLICKS)
    return path


class TestEquivalence:
    def test_iteration_and_lookup_identical(self, artifact_path):
        heap = SynonymArtifact.load(artifact_path)
        with SynonymArtifact.load(artifact_path, mmap=True) as mapped:
            assert mapped.is_mapped and not heap.is_mapped
            assert list(mapped) == list(heap)
            assert len(mapped) == len(heap)
            for entry in heap:
                assert mapped.lookup(entry.text) == heap.lookup(entry.text)
            assert mapped.priors() == heap.priors()
            assert mapped.state_hash == heap.state_hash
            assert mapped.max_entry_tokens == heap.max_entry_tokens
            assert mapped.strings_for_entity("m1") == heap.strings_for_entity("m1")
            assert mapped.strings_containing_token("madagascar") == (
                heap.strings_containing_token("madagascar")
            )

    def test_match_results_byte_identical(self, artifact_path):
        heap = MatchService(artifact_path)
        mapped = MatchService(artifact_path, mmap=True)
        for query in QUERIES:
            assert match_payload(mapped.match(query)) == match_payload(heap.match(query))
            assert mapped.resolve(query) == heap.resolve(query)
        assert mapped.close() is True

    def test_entry_tuples_identical(self, artifact_path):
        heap = SynonymArtifact.load(artifact_path)
        mapped = SynonymArtifact.load(artifact_path, mmap=True)
        assert list(mapped.entry_tuples()) == list(heap.entry_tuples())
        mapped.close()


class TestOwnership:
    def test_close_is_deterministic_after_use(self, artifact_path):
        artifact = SynonymArtifact.load(artifact_path, mmap=True)
        artifact.lookup("indy 4")
        list(artifact)
        artifact.priors()
        assert artifact.closed is False
        assert artifact.close() is True
        assert artifact.closed is True

    def test_close_idempotent(self, artifact_path):
        artifact = SynonymArtifact.load(artifact_path, mmap=True)
        assert artifact.close() is True
        assert artifact.close() is True

    def test_heap_artifact_close_is_noop(self, artifact_path):
        artifact = SynonymArtifact.load(artifact_path)
        assert artifact.is_mapped is False
        assert artifact.close() is True
        assert artifact.closed is False
        assert artifact.lookup("indy 4")  # still serving

    def test_closed_mapping_refuses_block_access(self, artifact_path):
        _manifest, mapping = read_artifact(artifact_path, mmap=True)
        assert isinstance(mapping, ArtifactMapping)
        assert set(mapping) == set(_manifest.blocks)
        mapping.close()
        with pytest.raises(ArtifactError, match="closed"):
            mapping["strings.blob"]

    def test_live_outside_view_defers_close(self, artifact_path):
        _manifest, mapping = read_artifact(artifact_path, mmap=True)
        outside = mapping["strings.blob"][0:4]  # an in-flight reader's slice
        assert mapping.close() is False  # deferred to refcounting
        assert mapping.closed is True  # but closed for new access
        outside.release()

    def test_mapping_context_manager(self, artifact_path):
        with read_artifact(artifact_path, mmap=True)[1] as mapping:
            assert mapping.size == artifact_path.stat().st_size
        assert mapping.closed


class TestServiceMmap:
    def test_requires_path_backed_service(self, artifact_path):
        loaded = SynonymArtifact.load(artifact_path)
        with pytest.raises(ValueError, match="path"):
            MatchService(loaded, mmap=True)

    def test_full_republish_hot_swap(self, artifact_path):
        service = MatchService(artifact_path, mmap=True)
        assert service.artifact.is_mapped
        new = ENTRIES + [DictionaryEntry("crystal skull movie", "m1", "mined", 7.0)]
        compile_dictionary(new, artifact_path, version="gen-2", click_log=CLICKS)
        assert service.maybe_reload() is True
        assert service.manifest.version == "gen-2"
        assert service.artifact.is_mapped
        assert service.match("crystal skull movie").matched
        service.close()

    def test_delta_folds_to_applied_file(self, artifact_path):
        service = MatchService(artifact_path, mmap=True)
        base = SynonymArtifact.load(artifact_path)
        new = ENTRIES + [DictionaryEntry("kingdom of the crystal skull", "m1", "mined", 6.0)]
        diff_delta(
            base, new, delta_path_for(artifact_path), version="gen-2", click_log=CLICKS
        )
        assert service.maybe_reload() is True
        stats = service.stats
        assert stats.deltas_applied == 1
        assert stats.reloads == 0  # fold, not a full cold reload
        assert fold_path_for(artifact_path).exists()
        assert delta_path_for(artifact_path).exists()  # sidecar kept for restarts
        assert service.artifact.is_mapped
        assert service.manifest.version == "gen-2"
        assert service.match("kingdom of the crystal skull").matched
        # The fold file is itself a valid full artifact, identical in state.
        folded = SynonymArtifact.load(fold_path_for(artifact_path))
        assert folded.state_hash == service.artifact.state_hash
        service.close()

    def test_fold_matches_heap_delta_apply(self, artifact_path):
        heap = MatchService(artifact_path)
        mapped = MatchService(artifact_path, mmap=True)
        base = SynonymArtifact.load(artifact_path)
        new = ENTRIES + [DictionaryEntry("indy four", "m1", "mined", 4.0)]
        diff_delta(
            base, new, delta_path_for(artifact_path), version="gen-2", click_log=CLICKS
        )
        assert heap.maybe_reload() and mapped.maybe_reload()
        for query in QUERIES + ["indy four"]:
            assert match_payload(mapped.match(query)) == match_payload(heap.match(query))
        assert mapped.artifact.state_hash == heap.artifact.state_hash
        mapped.close()

    def test_restart_refolds_pending_sidecar(self, artifact_path):
        base = SynonymArtifact.load(artifact_path)
        new = ENTRIES + [DictionaryEntry("escape 2 africa", "m2", "mined", 3.0)]
        diff_delta(
            base, new, delta_path_for(artifact_path), version="gen-2", click_log=CLICKS
        )
        service = MatchService(artifact_path, mmap=True)  # fresh process restart
        assert service.manifest.version == "gen-2"
        assert service.match("escape 2 africa").matched
        assert service.artifact.is_mapped
        service.close()

    def test_full_republish_sweeps_stale_fold_file(self, artifact_path):
        service = MatchService(artifact_path, mmap=True)
        base = SynonymArtifact.load(artifact_path)
        new = ENTRIES + [DictionaryEntry("skull kingdom", "m1", "mined", 2.0)]
        diff_delta(
            base, new, delta_path_for(artifact_path), version="gen-2", click_log=CLICKS
        )
        assert service.maybe_reload() is True
        assert fold_path_for(artifact_path).exists()
        # Publisher ships gen-3 full and removes its consumed sidecar.
        compile_dictionary(new, artifact_path, version="gen-3", click_log=CLICKS)
        delta_path_for(artifact_path).unlink()
        assert service.maybe_reload() is True
        assert service.manifest.version == "gen-3"
        assert not fold_path_for(artifact_path).exists()
        service.close()

    def test_swap_under_held_snapshot_is_safe(self, artifact_path):
        # An in-flight request holds the old state while a swap happens:
        # the old mapping must stay readable until the reference drops.
        service = MatchService(artifact_path, mmap=True)
        old_artifact = service.artifact
        compile_dictionary(
            ENTRIES + [DictionaryEntry("brand new", "m2", "mined", 1.0)],
            artifact_path,
            version="gen-2",
            click_log=CLICKS,
        )
        assert service.maybe_reload() is True
        # Old state still fully readable after being swapped out.
        assert old_artifact.lookup("indy 4")
        assert "brand new" not in old_artifact
        assert service.match("brand new").matched
        service.close()

    def test_stats_payload_reports_mmap(self, artifact_path):
        with daemon_server(artifact_path, watch_interval=0, mmap=True) as (_d, client):
            assert client.stats()["artifact"]["mmap"] is True
        with daemon_server(artifact_path, watch_interval=0) as (_d, client):
            assert client.stats()["artifact"]["mmap"] is False


def _pss_kb(pid: int) -> int:
    """Proportional set size of *pid* in kB, from smaps_rollup."""
    with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("Pss:"):
                return int(line.split()[1])
    raise OSError("smaps_rollup has no Pss line")


def _worker_group_pss_kb(artifact, *, mmap: bool) -> int:
    """Combined PSS of a ``--procs 2`` group serving *artifact*."""
    supervisor = ServerSupervisor(artifact, procs=2, port=0, watch_interval=0, mmap=mmap)
    supervisor.start()
    try:
        # The group really serves from this artifact in this mode before
        # anything is measured.
        with ServerClient(supervisor.host, supervisor.port) as client:
            assert client.match("benchmark title 00042")["matched"] is True
            assert client.stats()["artifact"]["mmap"] is mmap
        return sum(_pss_kb(worker.pid) for worker in supervisor._workers)
    finally:
        supervisor.shutdown()


class TestSharedPages:
    @pytest.mark.skipif(
        not os.path.exists("/proc/self/smaps_rollup"),
        reason="PSS measurement needs /proc/<pid>/smaps_rollup",
    )
    @pytest.mark.skipif(not reuse_port_supported(), reason="--procs needs SO_REUSEPORT")
    def test_two_workers_share_artifact_pages(self, tmp_path, monkeypatch):
        # PSS, not RSS: RSS counts a shared page once *per process* and
        # would show no difference.  ~6.7 MB on disk, so the artifact's
        # pages stand clear of the interpreter's own ~30 MB per worker.
        entries = []
        for i in range(20_000):
            entries.append((f"benchmark title {i:05d}", f"e-{i:05d}", "canonical", 1.0))
            for j in range(3):
                entries.append((f"alias {j} title {i:05d}", f"e-{i:05d}", "mined", 10.0 + j))
        path = tmp_path / "catalog.synart"
        compile_entries(entries, path, version="pss-1")
        size = path.stat().st_size

        monkeypatch.setenv(
            "PYTHONPATH", SRC_DIR + os.pathsep + os.environ.get("PYTHONPATH", "")
        )
        heap_kb = _worker_group_pss_kb(path, mmap=False)
        mmap_kb = _worker_group_pss_kb(path, mmap=True)

        # Two heap workers carry two private artifact copies; two mmap
        # workers share one.  The PSS delta must recover at least half an
        # artifact (it recovers ~one full artifact in practice).
        assert (heap_kb - mmap_kb) * 1024 >= 0.5 * size, (
            f"combined PSS heap {heap_kb} kB, mmap {mmap_kb} kB, artifact {size} bytes"
        )
