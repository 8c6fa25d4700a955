"""Crash-consistency tests for the artifact container.

A publish can be interrupted anywhere — power loss mid-copy, a SIGKILLed
rsync, a torn download.  Whatever prefix (or corruption) of a valid
artifact ends up on disk, loading it must raise a clean
:class:`ArtifactError`; it must never return garbage blocks, and the
read-only map it opened must be released on every failure.
"""

import struct

import pytest

from repro.clicklog.log import ClickLog
from repro.matching.index import DictionaryEntry
from repro.serving.artifact import SynonymArtifact, compile_dictionary
from repro.storage.artifact import (
    MAGIC,
    ArtifactError,
    ArtifactMapping,
    read_artifact,
    read_manifest,
    write_artifact,
    _HEADER,
)

ENTRIES = [
    DictionaryEntry("indiana jones and the kingdom of the crystal skull", "m1", "canonical"),
    DictionaryEntry("indy 4", "m1", "mined", 120.0),
    DictionaryEntry("madagascar escape 2 africa", "m2", "canonical"),
    DictionaryEntry("madagascar 2", "m2", "mined", 200.0),
]

CLICKS = ClickLog.from_tuples(
    [("indy 4", "https://a.example", 120), ("madagascar 2", "https://b.example", 200)]
)

# Every load maps the file; the one mode keeps the tests' node IDs.
MODES = ["mmap"]


@pytest.fixture()
def artifact_path(tmp_path):
    # Layout 2 with a priors block, so every block kind is on disk.
    path = tmp_path / "dict.synart"
    compile_dictionary(ENTRIES, path, version="v1", click_log=CLICKS)
    return path


def load(path):
    manifest, mapping = read_artifact(path)
    mapping.close()
    return manifest


def boundaries(path):
    """Every interesting truncation length for *path*.

    Header boundaries, the manifest end, and each block's start and end —
    plus one byte short of a full file.  Deduplicated and sorted so the
    test ids are stable.
    """
    manifest = read_manifest(path)
    size = path.stat().st_size
    cuts = {0, 1, _HEADER.size // 2, _HEADER.size - 1, _HEADER.size}
    for offset, length in manifest.blocks.values():
        cuts.add(offset)
        cuts.add(offset + length)
    cuts.add(size - 1)
    cuts.discard(size)  # a full file is not a truncation
    return sorted(cuts)


class TestTruncation:
    @pytest.mark.parametrize("mode", MODES)
    def test_every_boundary_rejected(self, artifact_path, mode):
        data = artifact_path.read_bytes()
        for cut in boundaries(artifact_path):
            artifact_path.write_bytes(data[:cut])
            with pytest.raises(ArtifactError):
                load(artifact_path)
        artifact_path.write_bytes(data)
        load(artifact_path)  # restored file loads again

    @pytest.mark.parametrize("mode", MODES)
    def test_empty_file_rejected(self, tmp_path, mode):
        path = tmp_path / "empty.synart"
        path.write_bytes(b"")
        with pytest.raises(ArtifactError, match="too short"):
            load(path)

    @pytest.mark.parametrize("mode", MODES)
    def test_synonym_loader_never_returns_garbage(self, artifact_path, mode):
        data = artifact_path.read_bytes()
        for cut in boundaries(artifact_path):
            artifact_path.write_bytes(data[:cut])
            with pytest.raises(ArtifactError):
                SynonymArtifact.load(artifact_path)


class TestCorruption:
    @pytest.mark.parametrize("mode", MODES)
    def test_bitflip_in_every_block_rejected(self, artifact_path, mode):
        data = bytearray(artifact_path.read_bytes())
        manifest = read_manifest(artifact_path)
        for name, (offset, length) in manifest.blocks.items():
            if length == 0:
                continue
            corrupted = bytearray(data)
            corrupted[offset] ^= 0xFF
            artifact_path.write_bytes(bytes(corrupted))
            with pytest.raises(ArtifactError, match="hash"):
                load(artifact_path)

    @pytest.mark.parametrize("mode", MODES)
    def test_block_span_past_eof_rejected(self, artifact_path, mode, tmp_path):
        # A manifest whose block span lies beyond the file must fail on the
        # bounds check, not fault on a short map / short buffer.
        manifest = read_manifest(artifact_path)
        raw = artifact_path.read_bytes()
        name, (offset, length) = next(iter(manifest.blocks.items()))
        manifest.blocks[name] = (offset, length + 10_000)
        body = manifest.to_json().encode("utf-8")
        doctored = tmp_path / "doctored.synart"
        doctored.write_bytes(
            _HEADER.pack(MAGIC, 1, len(body))
            + body
            + raw[_HEADER.size + len(read_manifest(artifact_path).to_json().encode()) :]
        )
        with pytest.raises(ArtifactError, match="past end"):
            load(doctored)


class TestManifestLenValidation:
    """`read_manifest` must reject framing *before* trusting manifest_len."""

    def test_foreign_file_with_huge_length_field(self, tmp_path):
        # Whatever bytes happen to sit where manifest_len lives in a
        # non-artifact file must not drive a giant read: the magic check
        # comes first.
        path = tmp_path / "foreign.bin"
        path.write_bytes(struct.pack("<8sII", b"NOTMAGIC", 1, 2**31 - 1) + b"x" * 64)
        with pytest.raises(ArtifactError, match="magic"):
            read_manifest(path)
        with pytest.raises(ArtifactError, match="magic"):
            read_artifact(path)

    def test_future_container_version_rejected_first(self, tmp_path):
        path = tmp_path / "future.bin"
        path.write_bytes(struct.pack("<8sII", MAGIC, 99, 2**31 - 1) + b"x" * 64)
        with pytest.raises(ArtifactError, match="container version"):
            read_manifest(path)

    def test_genuine_magic_with_oversized_length_is_truncated(self, tmp_path):
        # Right magic/version but a manifest_len larger than the file:
        # a clear "truncated manifest", bounded by the actual file size.
        path = tmp_path / "lying.art"
        path.write_bytes(struct.pack("<8sII", MAGIC, 1, 2**31 - 1) + b"{}" * 16)
        with pytest.raises(ArtifactError, match="truncated manifest"):
            read_manifest(path)
        with pytest.raises(ArtifactError, match="truncated manifest"):
            read_artifact(path)

    def test_non_utf8_manifest_rejected(self, tmp_path):
        body = b"\xff\xfe\xfd\xfc"
        path = tmp_path / "binary-manifest.art"
        path.write_bytes(struct.pack("<8sII", MAGIC, 1, len(body)) + body)
        with pytest.raises(ArtifactError, match="UTF-8"):
            read_manifest(path)
        with pytest.raises(ArtifactError, match="UTF-8"):
            read_artifact(path)

    def test_non_object_manifest_rejected(self, tmp_path):
        body = b"[1, 2, 3]"
        path = tmp_path / "list-manifest.art"
        path.write_bytes(struct.pack("<8sII", MAGIC, 1, len(body)) + body)
        with pytest.raises(ArtifactError, match="JSON object"):
            read_manifest(path)

    def test_malformed_manifest_fields_rejected(self, tmp_path):
        body = b'{"kind": "k", "blocks": {"b": "not-a-span"}}'
        path = tmp_path / "bad-fields.art"
        path.write_bytes(struct.pack("<8sII", MAGIC, 1, len(body)) + body)
        with pytest.raises(ArtifactError, match="malformed"):
            read_manifest(path)


class TestMmapFailureCleanup:
    def test_failed_mmap_load_releases_mapping(self, artifact_path):
        # A verify failure must not leak the map: the file
        # stays replaceable/unlinkable and a subsequent good load works.
        data = bytearray(artifact_path.read_bytes())
        data[-1] ^= 0x01
        artifact_path.write_bytes(bytes(data))
        for _ in range(3):
            with pytest.raises(ArtifactError, match="hash"):
                read_artifact(artifact_path)
        data[-1] ^= 0x01
        artifact_path.write_bytes(bytes(data))
        manifest, mapping = read_artifact(artifact_path)
        assert isinstance(mapping, ArtifactMapping)
        assert mapping.close() is True

    def test_wrong_kind_in_mmap_mode(self, tmp_path):
        path = tmp_path / "other.art"
        write_artifact(path, {"x": b"abc"}, kind="something-else")
        with pytest.raises(ArtifactError, match="kind"):
            read_artifact(path, expected_kind="synonym-dictionary")
