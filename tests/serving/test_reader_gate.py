"""The artifact readers load what this build writes, and refuse the rest.

Both readers (``SynonymArtifact`` and ``DictionaryDelta``)
share one gate on the manifest: kind, exact layout, the host's byte order
and ``u32`` width, and a ``state_hash``.  Each refusal below rewrites a
freshly compiled file's manifest with ``write_artifact`` (the blocks stay
valid, so the content hash still verifies) and must raise an
``ArtifactError`` that says to recompile.  A file whose manifest passes but
whose blocks are missing or ragged is refused the same way, never with a
``KeyError`` or ``TypeError``, and a service watching such a sidecar skips
it once and keeps serving.  Every refusal closes the map it opened.
"""

import sys

import pytest

import repro.serving.artifact as artifact_module
import repro.serving.delta as delta_module
from repro.matching.index import DictionaryEntry
from repro.serving.artifact import SynonymArtifact, compile_dictionary
from repro.serving.delta import DictionaryDelta, delta_path_for, diff_delta
from repro.serving.service import MatchService
from repro.storage.artifact import ArtifactError, ArtifactMapping, read_artifact, write_artifact

ENTRIES = [
    DictionaryEntry("alpha product", "e1", "canonical"),
    DictionaryEntry("alfa", "e1", "mined", 10.0),
    DictionaryEntry("beta gadget", "e2", "canonical"),
]
GROWN = ENTRIES + [DictionaryEntry("gamma widget", "e3", "canonical")]

FOREIGN = "big" if sys.byteorder == "little" else "little"

# Manifest rewrites of a file this build wrote; every one must be refused.
REFUSED = {
    "foreign-byteorder": lambda extra: {**extra, "byteorder": FOREIGN},
    "layout_version-1": lambda extra: {**extra, "layout_version": 1},
    # 2 <-> 3: a full artifact claiming the delta's layout, and back.
    "other-readers-layout_version": lambda extra: {
        **extra, "layout_version": 5 - extra["layout_version"]
    },
    "no-state_hash": lambda extra: {k: v for k, v in extra.items() if k != "state_hash"},
    "uint_itemsize-8": lambda extra: {**extra, "uint_itemsize": 8},
}

LOADERS = {
    "full-mmap": ("full", SynonymArtifact.load),
    "delta": ("delta", DictionaryDelta.load),
}


@pytest.fixture()
def written(tmp_path):
    """A full artifact and a delta sidecar, as this build writes them."""
    full = tmp_path / "dict.synart"
    compile_dictionary(ENTRIES, full, version="gen-1")
    sidecar = delta_path_for(full)
    diff_delta(SynonymArtifact.load(full), GROWN, sidecar, version="gen-2")
    return {"full": full, "delta": sidecar}


@pytest.fixture()
def mappings(monkeypatch):
    """Every mapping either reader opens, to check it closed."""
    opened: list[ArtifactMapping] = []

    def recording(*args, **kwargs):
        manifest, mapping = read_artifact(*args, **kwargs)
        opened.append(mapping)
        return manifest, mapping

    monkeypatch.setattr(artifact_module, "read_artifact", recording)
    monkeypatch.setattr(delta_module, "read_artifact", recording)
    return opened


def _rewrite(source, target, *, extra=lambda extra: extra, blocks=lambda blocks: blocks):
    """Write *source* again, its ``extra`` and its blocks passed through
    the given functions."""
    manifest, loaded = read_artifact(source)
    write_artifact(
        target,
        blocks({name: bytes(block) for name, block in loaded.items()}),
        kind=manifest.kind,
        version=manifest.version,
        counts=manifest.counts,
        extra=extra(manifest.extra),
    )
    return target


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize("rewrite", REFUSED)
def test_every_other_file_is_refused(written, tmp_path, loader, rewrite, mappings):
    kind, load = LOADERS[loader]
    refused = _rewrite(written[kind], tmp_path / "refused", extra=REFUSED[rewrite])
    with pytest.raises(ArtifactError, match="recompile"):
        load(refused)
    assert len(mappings) == 1
    assert all(mapping.closed for mapping in mappings)


def _one_byte_too_long(name):
    return lambda blocks: {**blocks, name: blocks[name] + b"\0"}


MALFORMED_FULL = {
    "no-blocks": lambda blocks: {},
    "ragged-entries.text": _one_byte_too_long("entries.text"),
}


# Every load maps the file; the one mode keeps the tests' node IDs.
@pytest.mark.parametrize("mode", ["mmap"])
@pytest.mark.parametrize("malformed", MALFORMED_FULL)
def test_malformed_blocks_are_an_artifact_error(written, tmp_path, malformed, mode, mappings):
    path = tmp_path / "malformed.synart"
    _rewrite(written["full"], path, blocks=MALFORMED_FULL[malformed])
    with pytest.raises(ArtifactError, match="recompile"):
        SynonymArtifact.load(path)
    assert len(mappings) == 1
    assert all(mapping.closed for mapping in mappings)


def test_a_ragged_delta_array_is_an_artifact_error(written):
    _rewrite(written["delta"], written["delta"], blocks=_one_byte_too_long("changed.weight"))
    with pytest.raises(ArtifactError, match="recompile"):
        DictionaryDelta.load(written["delta"])


def test_a_sidecar_without_blocks_is_skipped_once(written, monkeypatch):
    _rewrite(written["delta"], written["delta"], blocks=lambda blocks: {})
    reads = []

    def counting(*args, **kwargs):
        reads.append(args)
        return read_artifact(*args, **kwargs)

    monkeypatch.setattr(delta_module, "read_artifact", counting)
    service = MatchService(written["full"])
    assert service.manifest.version == "gen-1"
    assert service.match("alfa").entity_ids == {"e1"}
    assert service.stats.deltas_skipped == 1
    assert service.maybe_reload() is False
    assert len(reads) == 1
    assert service.stats.deltas_skipped == 1
