"""Single-file binary artifact container: manifest + named byte blocks.

The serving layer publishes compiled dictionaries as *artifacts*: one
immutable file that a server can cold-load with a single map.  This module
is the storage-level codec, deliberately ignorant of what the blocks mean
(the dictionary layouts live in :mod:`repro.serving.artifact` and
:mod:`repro.serving.delta`; the normative byte-level specification of the
container *and* every layout is ``docs/ARTIFACT_FORMAT.md``).  It handles

* the on-disk framing — magic, container format version, a JSON manifest,
  then the raw blocks back to back;
* the **manifest** — artifact kind, a caller-supplied version label,
  creation time, per-block offsets/lengths, arbitrary ``counts``/``extra``
  metadata, a config fingerprint and a SHA-256 **content hash** over the
  block payload (so a half-copied or corrupted artifact is rejected before
  it ever serves a query);
* **atomic, durable publication** — artifacts are written to a temp file
  in the destination directory, fsync-ed and ``os.replace``-d into place,
  after which the *parent directory* is fsync-ed too: a watcher (the
  daemon's poll, a :class:`~repro.serving.service.MatchService` reload)
  never observes a half-written file, and the rename itself
  survives power loss, not just process crash;
* **zero-copy mapped loads** — :func:`read_artifact` returns block views
  over one shared read-only file mapping (:class:`ArtifactMapping`), so N
  server processes loading the same published file share its pages
  instead of holding N heap copies.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import mmap as _mmap
import os
import struct
import tempfile
import time
from collections.abc import Mapping as _MappingABC
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO, Iterator, Mapping

__all__ = [
    "ArtifactError",
    "ArtifactManifest",
    "ArtifactMapping",
    "write_artifact",
    "read_manifest",
    "read_artifact",
    "content_hash",
    "STALE_TEMP_TTL_S",
]

MAGIC = b"REPROART"
CONTAINER_VERSION = 1
_HEADER = struct.Struct("<8sII")

# A `<name>*.tmp` file this much older than "now" can only be the debris of
# a publisher that was SIGKILLed mid-write (a live publish holds its temp
# for milliseconds); the publish-time sweep removes it.  Generous enough
# that a concurrent publisher's in-flight temp is never touched.
STALE_TEMP_TTL_S = 300.0


class ArtifactError(ValueError):
    """Raised when an artifact file is malformed, truncated or corrupted."""


@dataclass(frozen=True)
class ArtifactManifest:
    """Everything known about an artifact without touching its payload.

    Attributes
    ----------
    kind:
        What the blocks encode (e.g. ``"synonym-dictionary"``); readers
        refuse artifacts of the wrong kind.
    version:
        Caller-supplied label for *this build* of the artifact — an
        incremental miner publishes ``gen-1``, ``gen-2`` … so a server can
        tell which refresh it is serving.
    created_unix:
        Wall-clock publication time (not part of the content hash, so
        re-publishing identical data still hashes identically).
    counts / extra:
        Free-form metadata (entry counts, ``max_entry_tokens`` …).
    config_fingerprint:
        Hash of the producing configuration; lets operators detect an
        artifact mined with stale thresholds.
    content_hash:
        ``sha256`` over the ordered block names and payloads.
    blocks:
        name → (offset, length); offsets are absolute file positions.
    """

    kind: str
    version: str
    created_unix: float
    counts: dict[str, int] = field(default_factory=dict)
    extra: dict[str, Any] = field(default_factory=dict)
    config_fingerprint: str = ""
    content_hash: str = ""
    container_version: int = CONTAINER_VERSION
    blocks: dict[str, tuple[int, int]] = field(default_factory=dict)

    def to_json(self) -> str:
        payload = dataclasses.asdict(self)
        payload["blocks"] = {name: list(span) for name, span in self.blocks.items()}
        return json.dumps(payload, ensure_ascii=False, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ArtifactManifest":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ArtifactError("artifact manifest is not valid JSON") from exc
        if not isinstance(payload, dict):
            raise ArtifactError("artifact manifest is not a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ArtifactError(f"artifact manifest has unknown fields: {sorted(unknown)}")
        # A corrupted-but-decodable manifest can hold arbitrarily-shaped
        # values; surface every such misshape as ArtifactError, never as a
        # raw TypeError/ValueError from deep inside the conversion.
        try:
            payload["blocks"] = {
                name: (int(offset), int(length))
                for name, (offset, length) in payload.get("blocks", {}).items()
            }
            return cls(**payload)
        except ArtifactError:
            raise
        except (TypeError, ValueError, AttributeError) as exc:
            raise ArtifactError(f"artifact manifest is malformed: {exc}") from exc


def content_hash(blocks: Mapping[str, bytes | memoryview]) -> str:
    """SHA-256 over block names and payloads in sorted-name order."""
    digest = hashlib.sha256()
    for name in sorted(blocks):
        digest.update(name.encode("utf-8"))
        digest.update(struct.pack("<Q", len(blocks[name])))
        digest.update(blocks[name])
    return digest.hexdigest()


def write_artifact(
    path: str | Path,
    blocks: Mapping[str, bytes],
    *,
    kind: str,
    version: str = "1",
    counts: Mapping[str, int] | None = None,
    extra: Mapping[str, Any] | None = None,
    config_fingerprint: str = "",
    created_unix: float | None = None,
) -> ArtifactManifest:
    """Atomically and durably write *blocks* (plus their manifest) to *path*.

    The file appears under its final name only when fully written and
    fsync-ed, so concurrent readers see either the old artifact or the new
    one, never a torn mix.  After the rename the parent directory is
    fsync-ed as well — without that, a power loss shortly after
    ``os.replace`` can roll the directory entry back and silently lose the
    publish (the classic rename-durability gap; process crashes alone never
    hit it).  Finally, stale ``<name>*.tmp`` debris older than
    :data:`STALE_TEMP_TTL_S` (a previous publisher SIGKILLed between
    ``mkstemp`` and ``os.replace``) is swept so artifact directories do not
    accumulate garbage the watcher has to stat around.  Returns the
    manifest that was embedded.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)

    manifest = ArtifactManifest(
        kind=kind,
        version=version,
        created_unix=time.time() if created_unix is None else created_unix,
        counts=dict(counts or {}),
        extra=dict(extra or {}),
        config_fingerprint=config_fingerprint,
        content_hash=content_hash(blocks),
    )
    # Offsets depend on the manifest length, which depends on the offsets'
    # digit count.  Fix-point in at most a couple of rounds: serialize with
    # placeholder offsets, recompute, repeat until stable.
    names = sorted(blocks)
    spans = {name: (0, len(blocks[name])) for name in names}
    while True:
        candidate = dataclasses.replace(manifest, blocks=spans)
        header_len = _HEADER.size + len(candidate.to_json().encode("utf-8"))
        cursor = header_len
        recomputed: dict[str, tuple[int, int]] = {}
        for name in names:
            recomputed[name] = (cursor, len(blocks[name]))
            cursor += len(blocks[name])
        if recomputed == spans:
            manifest = candidate
            break
        spans = recomputed

    manifest_bytes = manifest.to_json().encode("utf-8")
    fd, temp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(_HEADER.pack(MAGIC, CONTAINER_VERSION, len(manifest_bytes)))
            handle.write(manifest_bytes)
            for name in names:
                handle.write(blocks[name])
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    _fsync_directory(path.parent)
    _sweep_stale_temps(path)
    return manifest


def _fsync_directory(directory: Path) -> None:
    """Flush a rename to stable storage by fsync-ing its directory.

    Best-effort: platforms that cannot open a directory for fsync (Windows)
    or filesystems that refuse it degrade to the pre-durability behavior
    instead of failing the publish.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _sweep_stale_temps(path: Path) -> int:
    """Remove aged ``<name>*.tmp`` debris next to *path*; returns the count.

    Only temps matching this artifact's ``mkstemp`` naming and older than
    :data:`STALE_TEMP_TTL_S` are touched, so a concurrent publisher's
    in-flight temp file (held for milliseconds) is never at risk.  Purely
    best-effort: a sweep failure never fails the publish that triggered it.
    """
    removed = 0
    cutoff = time.time() - STALE_TEMP_TTL_S
    try:
        names = os.listdir(path.parent)
    except OSError:
        return 0
    for name in names:
        if not (name.startswith(path.name) and name.endswith(".tmp")):
            continue
        candidate = path.parent / name
        try:
            if candidate.stat().st_mtime <= cutoff:
                candidate.unlink()
                removed += 1
        except OSError:
            continue
    return removed


def _read_header(handle: BinaryIO, source: str) -> int:
    """Validate the framing of an open artifact; return where its manifest ends.

    The one header parser of both readers.  Validation order matters: the
    magic and container version are checked before ``manifest_len`` is
    trusted, and the declared length is bounded by the file size, so a
    foreign or corrupt file gets a clear error instead of a read larger
    than the file itself, let alone a giant allocation.
    """
    size = os.fstat(handle.fileno()).st_size
    head = handle.read(_HEADER.size)
    if len(head) < _HEADER.size:
        raise ArtifactError(f"{source}: too short to be an artifact")
    magic, container_version, manifest_len = _HEADER.unpack(head)
    if magic != MAGIC:
        raise ArtifactError(f"{source}: bad magic (not a repro artifact)")
    if container_version != CONTAINER_VERSION:
        raise ArtifactError(
            f"{source}: container version {container_version} is not "
            f"{CONTAINER_VERSION}, the only one this build reads"
        )
    end = _HEADER.size + manifest_len
    if end > size:
        raise ArtifactError(f"{source}: truncated manifest")
    return end


def _decode_manifest(raw: bytes, source: str) -> ArtifactManifest:
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ArtifactError(f"{source}: artifact manifest is not valid UTF-8") from exc
    return ArtifactManifest.from_json(text)


def read_manifest(path: str | Path) -> ArtifactManifest:
    """Read only the header + manifest of an artifact (cheap peek).

    The framing is validated first (:func:`_read_header`), so the read is
    never larger than the file.
    """
    path = Path(path)
    with path.open("rb") as handle:
        end = _read_header(handle, str(path))
        raw = handle.read(end - _HEADER.size)
    return _decode_manifest(raw, str(path))


class ArtifactMapping(_MappingABC[str, memoryview]):
    """Ownership handle for one artifact served straight out of ``mmap``.

    Behaves as a read-only ``Mapping[str, memoryview]`` of block name →
    zero-copy view over a shared read-only file mapping, so it drops in
    wherever a plain block dict is accepted.  On top of that it owns the
    map's lifetime:

    * every view it hands out (and every derived typed view registered via
      :meth:`adopt`) is released by :meth:`close`, after which the mapping
      is returned to the OS — deterministic teardown for single-owner
      callers (CLI tools, tests, a daemon shutting down);
    * :meth:`close` is **refused-safe**: if outside sub-views are still
      alive (an in-flight request slicing strings out of the pool), it
      returns ``False`` and leaves the map open — the pages are then
      unmapped by CPython's refcounting the moment the last view drops,
      so a hot swap can simply drop its reference to the old state and
      never race an active reader;
    * once closed (or close-requested), block access raises
      :class:`ArtifactError` instead of faulting on a dead map.

    Because the mapping is shared and read-only, N worker processes
    mapping the same published file serve from one set of physical pages:
    per-worker unique RSS stays O(1) in catalog size.
    """

    def __init__(
        self,
        path: Path,
        manifest: ArtifactManifest,
        mapped: "_mmap.mmap",
        view: memoryview,
        blocks: dict[str, memoryview],
    ) -> None:
        self.path = path
        self.manifest = manifest
        self._mmap: _mmap.mmap | None = mapped
        self._view = view
        self._blocks = blocks
        self._adopted: list[memoryview] = []
        self._closed = False

    # Mapping protocol ------------------------------------------------- #

    def __getitem__(self, name: str) -> memoryview:
        if self._closed:
            raise ArtifactError(f"{self.path}: artifact mapping is closed")
        return self._blocks[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._blocks)

    def __len__(self) -> int:
        return len(self._blocks)

    # Ownership -------------------------------------------------------- #

    def adopt(self, view: memoryview) -> memoryview:
        """Register a derived view (e.g. a typed cast) for release on close."""
        self._adopted.append(view)
        return view

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran (even if teardown was deferred)."""
        return self._closed

    @property
    def size(self) -> int:
        """Mapped file size in bytes."""
        return len(self._view) if not self._closed else 0

    def close(self) -> bool:
        """Release every owned view and unmap the file.

        Returns True when the map was torn down now; False when a live
        sub-view (an in-flight reader) kept it alive — the OS mapping then
        goes away with the last reference instead.  Either way the mapping
        is *closed* for new block access.
        """
        self._closed = True
        if self._mmap is None:
            return True
        try:
            while self._adopted:
                self._adopted[-1].release()
                self._adopted.pop()
            for block in self._blocks.values():
                block.release()
            self._view.release()
            self._mmap.close()
        except BufferError:
            return False
        self._mmap = None
        return True

    def __enter__(self) -> "ArtifactMapping":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else f"{len(self._blocks)} blocks"
        return f"<ArtifactMapping {self.path} ({state})>"


def _slice_blocks(
    view: memoryview, manifest: ArtifactManifest, source: str
) -> dict[str, memoryview]:
    blocks: dict[str, memoryview] = {}
    try:
        for name, (offset, length) in manifest.blocks.items():
            if offset < 0 or length < 0 or offset + length > len(view):
                raise ArtifactError(f"{source}: block {name!r} extends past end of file")
            blocks[name] = view[offset : offset + length]
    except BaseException:
        # Release the partial views before raising: the exception's
        # traceback keeps this frame (and the dict) alive, and un-released
        # views over an mmap would block the caller's cleanup close().
        for block in blocks.values():
            block.release()
        blocks.clear()
        raise
    return blocks


def read_artifact(
    path: str | Path, *, expected_kind: str | None = None
) -> tuple[ArtifactManifest, ArtifactMapping]:
    """Map an artifact read-only and verify it; blocks are zero-copy views.

    The returned :class:`ArtifactMapping` is the ownership object that
    keeps the map alive and closes it deterministically; the pages are
    shared with every other process mapping the same file.  The content
    hash is always recomputed (a mismatch raises :class:`ArtifactError`),
    which also pre-faults every page, so a loaded artifact serves its first
    queries without major page faults.
    """
    path = Path(path)
    with path.open("rb") as handle:
        # Also what keeps an empty file (which mmap refuses) from the map.
        end = _read_header(handle, str(path))
        mapped = _mmap.mmap(handle.fileno(), 0, access=_mmap.ACCESS_READ)
    view = memoryview(mapped)
    blocks: dict[str, memoryview] = {}
    try:
        manifest = _decode_manifest(mapped[_HEADER.size : end], str(path))
        if expected_kind is not None and manifest.kind != expected_kind:
            raise ArtifactError(
                f"{path}: artifact kind {manifest.kind!r}, expected {expected_kind!r}"
            )
        blocks = _slice_blocks(view, manifest, str(path))
        # hashlib consumes memoryviews directly — no payload copy here.
        if content_hash(blocks) != manifest.content_hash:
            raise ArtifactError(
                f"{path}: content hash mismatch (file corrupted or half-copied)"
            )
    except BaseException:
        # Release every view before unmapping: a live export would make
        # mmap.close() raise instead of returning the pages.
        for block in blocks.values():
            block.release()
        view.release()
        mapped.close()
        raise
    return manifest, ArtifactMapping(path, manifest, mapped, view, blocks)
