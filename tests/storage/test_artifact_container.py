"""Tests for the binary artifact container codec."""

import pytest

from repro.storage.artifact import (
    MAGIC,
    ArtifactError,
    ArtifactManifest,
    content_hash,
    read_artifact,
    read_manifest,
    write_artifact,
)

BLOCKS = {"alpha": b"abc", "beta": b"\x00\x01\x02\x03", "empty": b""}


@pytest.fixture()
def artifact_path(tmp_path):
    path = tmp_path / "test.art"
    write_artifact(
        path,
        BLOCKS,
        kind="test-kind",
        version="v7",
        counts={"things": 3},
        extra={"note": "hello"},
        config_fingerprint="cafe",
    )
    return path


class TestRoundTrip:
    def test_blocks_identical(self, artifact_path):
        _, blocks = read_artifact(artifact_path)
        assert {name: bytes(block) for name, block in blocks.items()} == BLOCKS

    def test_manifest_fields(self, artifact_path):
        manifest, _ = read_artifact(artifact_path)
        assert manifest.kind == "test-kind"
        assert manifest.version == "v7"
        assert manifest.counts == {"things": 3}
        assert manifest.extra == {"note": "hello"}
        assert manifest.config_fingerprint == "cafe"
        assert manifest.content_hash == content_hash(BLOCKS)
        assert manifest.created_unix > 0

    def test_read_manifest_peek_matches_full_read(self, artifact_path):
        assert read_manifest(artifact_path) == read_artifact(artifact_path)[0]

    def test_manifest_json_round_trip(self, artifact_path):
        manifest = read_manifest(artifact_path)
        assert ArtifactManifest.from_json(manifest.to_json()) == manifest

    def test_empty_blocks(self, tmp_path):
        path = tmp_path / "empty.art"
        write_artifact(path, {}, kind="test-kind")
        manifest, blocks = read_artifact(path)
        assert blocks == {}
        assert manifest.content_hash == content_hash({})


class TestValidation:
    def test_kind_mismatch_rejected(self, artifact_path):
        with pytest.raises(ArtifactError, match="kind"):
            read_artifact(artifact_path, expected_kind="other-kind")

    def test_corrupted_payload_rejected(self, artifact_path):
        data = bytearray(artifact_path.read_bytes())
        data[-1] ^= 0xFF
        artifact_path.write_bytes(bytes(data))
        with pytest.raises(ArtifactError, match="hash"):
            read_artifact(artifact_path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.art"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(ArtifactError, match="magic"):
            read_artifact(path)

    def test_truncated_file_rejected(self, artifact_path):
        artifact_path.write_bytes(artifact_path.read_bytes()[:12])
        with pytest.raises(ArtifactError):
            read_artifact(artifact_path)

    def test_magic_is_stable(self, artifact_path):
        assert artifact_path.read_bytes()[: len(MAGIC)] == MAGIC


class TestAtomicity:
    def test_overwrite_leaves_no_temp_files(self, artifact_path):
        write_artifact(artifact_path, {"other": b"xyz"}, kind="test-kind", version="v8")
        manifest, blocks = read_artifact(artifact_path)
        assert manifest.version == "v8"
        assert set(blocks) == {"other"}
        assert [p.name for p in artifact_path.parent.iterdir()] == [artifact_path.name]

    def test_created_unix_override(self, tmp_path):
        path = tmp_path / "stamped.art"
        write_artifact(path, {}, kind="test-kind", created_unix=123.5)
        assert read_manifest(path).created_unix == 123.5

    def test_identical_content_hashes_identically(self, tmp_path):
        first = write_artifact(tmp_path / "a.art", BLOCKS, kind="k", created_unix=1.0)
        second = write_artifact(tmp_path / "b.art", BLOCKS, kind="k", created_unix=2.0)
        assert first.content_hash == second.content_hash
