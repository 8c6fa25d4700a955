"""Mapped serving: ownership, hot swap, and deltas applied in memory.

That a mapped artifact answers exactly like the reference, across
republishes, is ``tests/oracle``'s job.  Pinned here are the ownership
rules (deterministic close, refcount fallback) and what
:class:`MatchService` does with files: a full republish is remapped, a
delta sidecar is applied in memory (also at a restart, and also when the
disk is full), and no server writes a file.

Last, the one fact that is the reason serving maps the file and that no
``benchmarks/perf`` workload can see (none runs ``--procs``): two worker
processes mapping one artifact share its pages (:class:`TestSharedPages`).
"""

import errno
import os
import types

import pytest

from repro.clicklog.log import ClickLog
from repro.matching.index import DictionaryEntry
from repro.server.client import ServerClient
from repro.server.daemon import reuse_port_supported
from repro.server.supervisor import ServerSupervisor
from repro.serving.artifact import SynonymArtifact, compile_dictionary, compile_entries
from repro.serving.delta import DictionaryDelta, delta_path_for, diff_delta
from repro.serving.service import MatchService
from repro.storage import artifact as storage_artifact
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


class TestOwnership:
    def test_close_is_deterministic_after_use(self, artifact_path):
        artifact = SynonymArtifact.load(artifact_path)
        artifact.entities_for("indy 4")
        list(artifact)
        artifact.priors()
        assert artifact.closed is False
        assert artifact.close() is True
        assert artifact.closed is True

    def test_close_idempotent(self, artifact_path):
        artifact = SynonymArtifact.load(artifact_path)
        assert artifact.close() is True
        assert artifact.close() is True

    def test_heap_artifact_close_is_noop(self):
        artifact = SynonymArtifact.from_entries(ENTRIES)
        assert artifact.is_mapped is False
        assert artifact.close() is True
        assert artifact.closed is False
        assert artifact.entities_for("indy 4")  # still serving

    def test_closed_mapping_refuses_block_access(self, artifact_path):
        _manifest, mapping = read_artifact(artifact_path)
        assert isinstance(mapping, ArtifactMapping)
        assert set(mapping) == set(_manifest.blocks)
        mapping.close()
        with pytest.raises(ArtifactError, match="closed"):
            mapping["strings.blob"]

    def test_live_outside_view_defers_close(self, artifact_path):
        _manifest, mapping = read_artifact(artifact_path)
        outside = mapping["strings.blob"][0:4]  # an in-flight reader's slice
        assert mapping.close() is False  # deferred to refcounting
        assert mapping.closed is True  # but closed for new access
        outside.release()

    def test_mapping_context_manager(self, artifact_path):
        with read_artifact(artifact_path)[1] as mapping:
            assert not mapping.closed
            assert set(mapping) == set(mapping.manifest.blocks)
        assert mapping.closed


class TestServiceMmap:
    def test_full_republish_hot_swap(self, artifact_path):
        service = MatchService(artifact_path)
        assert service.artifact.is_mapped
        new = ENTRIES + [DictionaryEntry("crystal skull movie", "m1", "mined", 7.0)]
        compile_dictionary(new, artifact_path, version="gen-2", click_log=CLICKS)
        assert service.maybe_reload() is True
        assert service.manifest.version == "gen-2"
        assert service.artifact.is_mapped
        assert service.match("crystal skull movie").matched
        service.close()

    def test_restart_applies_pending_sidecar(self, artifact_path):
        base = SynonymArtifact.load(artifact_path)
        new = ENTRIES + [DictionaryEntry("escape 2 africa", "m2", "mined", 3.0)]
        diff_delta(
            base, new, delta_path_for(artifact_path), version="gen-2", click_log=CLICKS
        )
        service = MatchService(artifact_path)  # fresh process restart
        assert service.manifest.version == "gen-2"
        assert service.match("escape 2 africa").matched
        assert service.stats.deltas_applied == 1
        # Applied in memory: a private copy until the next full publish,
        # and nothing written beside the published files.
        assert not service.artifact.is_mapped
        assert sorted(os.listdir(artifact_path.parent)) == ["dict.synart", "dict.synart.delta"]
        service.close()

    def test_a_full_disk_does_not_stop_a_server_with_a_pending_sidecar(
        self, artifact_path, monkeypatch
    ):
        base = SynonymArtifact.load(artifact_path)
        gen2 = ENTRIES + [DictionaryEntry("indy four", "m1", "mined", 4.0)]
        diff_delta(
            base, gen2, delta_path_for(artifact_path), version="gen-2", click_log=CLICKS
        )
        applied = base.apply_delta(DictionaryDelta.load(delta_path_for(artifact_path)))
        gen3 = gen2 + [DictionaryEntry("skull kingdom", "m1", "mined", 2.0)]
        next_sidecar = artifact_path.parent / "next.delta"
        diff_delta(applied, gen3, next_sidecar, version="gen-3", click_log=CLICKS)

        def full_disk(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        # From here on no artifact file can be written into the directory.
        monkeypatch.setattr(storage_artifact, "tempfile", types.SimpleNamespace(mkstemp=full_disk))
        service = MatchService(artifact_path, mmap=True)
        assert service.manifest.version == "gen-2"
        assert service.maybe_reload() is False
        os.replace(next_sidecar, delta_path_for(artifact_path))
        assert service.maybe_reload() is True
        assert service.manifest.version == "gen-3"
        assert service.match("skull kingdom").matched
        assert service.stats.deltas_applied == 2

    def test_swap_under_held_snapshot_is_safe(self, artifact_path):
        # An in-flight request holds the old state while a swap happens:
        # the old mapping must stay readable until the reference drops.
        service = MatchService(artifact_path)
        old_artifact = service.artifact
        compile_dictionary(
            ENTRIES + [DictionaryEntry("brand new", "m2", "mined", 1.0)],
            artifact_path,
            version="gen-2",
            click_log=CLICKS,
        )
        assert service.maybe_reload() is True
        # Old state still fully readable after being swapped out.
        assert old_artifact.entities_for("indy 4")
        assert old_artifact.entities_for("brand new") == set()
        assert service.match("brand new").matched
        service.close()

    def test_stats_payload_reports_mmap(self, artifact_path):
        with daemon_server(artifact_path, watch_interval=0) as (_d, client):
            assert client.stats()["artifact"]["mmap"] is True
        base = SynonymArtifact.load(artifact_path)
        new = ENTRIES + [DictionaryEntry("skull kingdom", "m1", "mined", 2.0)]
        diff_delta(
            base, new, delta_path_for(artifact_path), version="gen-2", click_log=CLICKS
        )
        with daemon_server(artifact_path, watch_interval=0) as (_d, client):
            assert client.stats()["artifact"]["mmap"] is False  # the delta's copy


def _artifact_mapping_kb(pid: int, path: str) -> tuple[int, int]:
    """``(Rss, Pss)`` in kB of *pid*'s mappings of the file at *path*."""
    rss = pss = 0
    mapped = False
    with open(f"/proc/{pid}/smaps", encoding="utf-8", errors="replace") as handle:
        for line in handle:
            fields = line.rstrip("\n").split(maxsplit=5)
            if not line[0].isupper():  # a mapping's header line
                mapped = len(fields) >= 6 and fields[5] == path
            elif mapped and fields[0] == "Rss:":
                rss += int(fields[1])
            elif mapped and fields[0] == "Pss:":
                pss += int(fields[1])
    return rss, pss


class TestSharedPages:
    @pytest.mark.skipif(
        not os.path.exists("/proc/self/smaps"),
        reason="page sharing is read from /proc/<pid>/smaps",
    )
    @pytest.mark.skipif(not reuse_port_supported(), reason="--procs needs SO_REUSEPORT")
    def test_two_workers_share_artifact_pages(self, tmp_path, monkeypatch):
        # Per mapping of the artifact: Rss counts a shared page once per
        # process, Pss splits it between the processes that map it.  ~6.7
        # MB on disk, so the artifact's pages are many.
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
        supervisor = ServerSupervisor(path, procs=2, port=0, watch_interval=0).start()
        try:
            # The group really serves from this artifact before anything
            # is measured.
            with ServerClient(supervisor.host, supervisor.port) as client:
                assert client.match("benchmark title 00042")["matched"] is True
                assert client.stats()["artifact"]["mmap"] is True
            readings = [
                _artifact_mapping_kb(worker.pid, os.path.realpath(path))
                for worker in supervisor._workers
            ]
        finally:
            supervisor.shutdown()

        where = f"(Rss, Pss) kB per worker {readings}, artifact {size} bytes"
        # Each worker has the file resident (loading verifies every page)...
        for rss_kb, _pss_kb in readings:
            assert rss_kb * 1024 >= 0.5 * size, where
        # ...and the two share it: two private copies would sum to 2x.
        assert sum(pss_kb for _rss_kb, pss_kb in readings) * 1024 <= 1.25 * size, where
