"""Compiled synonym dictionaries: the ``SynonymArtifact`` format.

:class:`SynonymArtifact` is the one index that answers queries in
production.  Publishers turn mined synonyms into
:class:`~repro.matching.index.DictionaryEntry` rows
(:mod:`repro.matching.index`), collapse them with :func:`dedupe_entries`
and pack them once, offline, into a single immutable artifact file
(:func:`compile_entries`) that a server cold-loads with one map — or, for
one-shot tools, straight into memory (:meth:`SynonymArtifact.from_entries`).
The artifact implements the
:class:`~repro.matching.index.DictionaryIndex` protocol directly on the
packed bytes, decoding only the strings a call touches.  The packed arrays
are *typed views* over the loaded buffer — never eager copies — so a
loaded artifact (:meth:`load` maps the file read-only) serves straight out
of the page cache and N workers mapping the same published file share one
set of physical pages.

The normative description of the on-disk format — container framing,
manifest fields, byte-level block layouts for the full artifact (layout 2)
and the delta sidecar (layout 3, :mod:`repro.serving.delta`), plus the
reader compatibility matrix — lives in ``docs/ARTIFACT_FORMAT.md``.
In short: a full artifact packs a deduplicated string pool, the entries as
parallel arrays in dictionary insertion order, byte-sorted exact and token
indexes, and an optional per-entity click-prior block.  A reader loads only
what this build writes (:func:`_check_layout`); any other file is refused
with a pointer to ``repro compile``.

Two integrity identities are stamped into every manifest:

* the container's ``content_hash`` (sha256 over the raw blocks, checked on
  load — see :mod:`repro.storage.artifact`), and
* a logical ``state_hash`` (in ``extra``) over the ordered entry tuples and
  the prior mapping — the identity :mod:`repro.serving.delta` uses to chain
  incremental deltas onto a base artifact.

Compilation is deterministic: the same entry sequence (after duplicate
collapse) and priors always produce the same ``content_hash`` and
``state_hash``, which is what makes ``base + delta`` reproducible.
"""

from __future__ import annotations

import hashlib
import struct
import sys
from array import array
from bisect import bisect_left
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping, Protocol

from repro.matching.index import DictionaryEntry, TokenPostings
from repro.storage.artifact import (
    ArtifactError,
    ArtifactManifest,
    ArtifactMapping,
    content_hash,
    read_artifact,
    read_manifest,
    write_artifact,
)
from repro.text.normalize import normalize
from repro.text.tokenize import tokenize

if TYPE_CHECKING:
    # Import cycle: repro.serving.delta imports the pack helpers above.
    from repro.serving.delta import DictionaryDelta

__all__ = [
    "ARTIFACT_KIND",
    "LAYOUT_VERSION",
    "EntryTuple",
    "dedupe_entries",
    "compute_priors",
    "state_hash",
    "build_blocks",
    "compile_entries",
    "compile_dictionary",
    "SynonymArtifact",
]

ARTIFACT_KIND = "synonym-dictionary"
# Full artifacts are layout 2 (entries, indexes and an optional priors
# block).  Layout 3 is the delta *sidecar*, a different artifact kind (see
# repro.serving.delta).
LAYOUT_VERSION = 2

# One dictionary entry as plain data: (text, entity_id, source, weight),
# with the text already normalized.  This is the unit the delta format and
# the state hash are defined over.
EntryTuple = tuple[str, str, str, float]

_U32 = "I"
_U64 = "Q"
_F64 = "d"

# Blocks are packed in host order; every writer stamps these into its
# manifest, and a reader accepts no other values (see _check_layout).
_HOST_LAYOUT = {"byteorder": sys.byteorder, "uint_itemsize": array(_U32).itemsize}


def _pack(typecode: str, values: Iterable[int | float]) -> bytes:
    packed = array(typecode)
    packed.extend(values)
    return packed.tobytes()


def _check_layout(manifest: ArtifactManifest, *, kind: str, layout: int) -> None:
    """Refuse any file this build does not write.

    The one gate both readers run before they touch a block: the reader's
    kind and exact layout, the host's byte order and ``u32`` width (so
    every typed block casts natively), and a ``state_hash``.  Artifacts
    are derived data, so the remedy for every refusal is to recompile.
    """
    extra = manifest.extra
    found = {**extra, "kind": manifest.kind}
    for key, wanted in {"kind": kind, "layout_version": layout, **_HOST_LAYOUT}.items():
        if found.get(key) != wanted:
            raise ArtifactError(
                f"artifact {key} is {found.get(key)!r} but this build reads only "
                f"{wanted!r}: recompile it with `repro compile`"
            )
    if not isinstance(extra.get("state_hash"), str):
        raise ArtifactError("artifact has no state_hash: recompile it with `repro compile`")


def _typed(
    blocks: Mapping[str, memoryview],
    name: str,
    typecode: str,
    mapping: ArtifactMapping | None = None,
) -> memoryview:
    """Block *name* as a typed view, registered with *mapping* when given.

    A missing block, or one that is not a whole number of items, is an
    :class:`ArtifactError`.  Only the block's length is checked, never its
    contents, so a load stays O(blocks).
    """
    try:
        # repro: allow(explicit-endian) _check_layout refused a foreign byteorder
        view = blocks[name].cast(typecode)
    except KeyError:
        raise ArtifactError(f"artifact has no {name!r} block: recompile it") from None
    except TypeError:
        raise ArtifactError(
            f"artifact block {name!r} is not a whole number of {typecode!r} "
            "items: recompile it"
        ) from None
    if mapping is not None:
        mapping.adopt(view)
    return view


class ClickVolumeSource(Protocol):
    """The one lookup prior computation needs (satisfied by ``ClickLog``)."""

    def total_clicks(self, query: str) -> int: ...


class _DecodedStrings(dict[int, str]):
    """String id → its string, decoded from the pool on first access and kept.

    Lookups key their binary search on ``__getitem__``, so a search over
    strings already decoded runs no Python code per step.
    """

    __slots__ = ("_blob", "_offsets")

    def __init__(self, blob: memoryview, offsets: memoryview) -> None:
        super().__init__()
        self._blob = blob
        self._offsets = offsets

    def __missing__(self, sid: int) -> str:
        offsets = self._offsets
        text = str(self._blob[offsets[sid] : offsets[sid + 1]], "utf-8")
        self[sid] = text
        return text


class _StringPool:
    """Deduplicating first-seen-order string pool used at compile time."""

    def __init__(self) -> None:
        self.strings: list[str] = []
        self._ids: dict[str, int] = {}

    def intern(self, text: str) -> int:
        sid = self._ids.get(text)
        if sid is None:
            sid = len(self.strings)
            self._ids[text] = sid
            self.strings.append(text)
        return sid


def dedupe_entries(dictionary: Iterable[DictionaryEntry | EntryTuple]) -> list[EntryTuple]:
    """Normalize *dictionary* into the canonical entry-tuple sequence.

    Texts are normalized, empty texts dropped, and duplicate ``(text,
    entity)`` pairs collapse onto their first position keeping the
    max-weight source — the rule the test reference in ``tests/oracle``
    restates by scanning.  The resulting sequence is what the state hash
    and the delta format are defined over.
    """
    rows: list[list[Any]] = []
    seen: dict[tuple[str, str], int] = {}
    for entry in dictionary:
        if isinstance(entry, tuple):
            raw_text, entity_id, source, weight = entry
        else:
            raw_text, entity_id, source, weight = (
                entry.text, entry.entity_id, entry.source, entry.weight,
            )
        text = normalize(raw_text)
        if not text:
            continue
        key = (text, entity_id)
        position = seen.get(key)
        if position is not None:
            if float(weight) > rows[position][3]:
                rows[position][2] = source
                rows[position][3] = float(weight)
            continue
        seen[key] = len(rows)
        rows.append([text, entity_id, source, float(weight)])
    return [tuple(row) for row in rows]  # type: ignore[misc]


def compute_priors(
    entries: Iterable[EntryTuple], click_log: ClickVolumeSource
) -> dict[str, float]:
    """Entity id → summed click volume of its dictionary strings.

    The per-entity quantity
    :meth:`~repro.matching.resolver.MatchResolver.prior` computes from a
    live log, evaluated over the deduplicated *entries* so an artifact's
    priors block and a live-log resolver agree number for number.
    """
    texts_by_entity: dict[str, list[str]] = {}
    for text, entity_id, _source, _weight in entries:
        texts_by_entity.setdefault(entity_id, []).append(text)
    return {
        entity_id: float(sum(click_log.total_clicks(text) for text in texts))
        for entity_id, texts in texts_by_entity.items()
    }


def state_hash(
    entries: Iterable[EntryTuple], priors: Mapping[str, float] | None
) -> str:
    """Logical identity of a compiled dictionary: sha256 over its state.

    Covers the *ordered* entry tuples and the prior mapping (sorted by
    entity id), nothing else — not timestamps, not version labels, not the
    packed block encoding.  Two artifacts with equal state hashes serve
    identical results, and a delta names its base and target states by this
    hash (see ``docs/ARTIFACT_FORMAT.md``).
    """
    digest = hashlib.sha256()
    for text, entity_id, source, weight in entries:
        for part in (text, entity_id, source):
            raw = part.encode("utf-8")
            digest.update(struct.pack("<Q", len(raw)))
            digest.update(raw)
        digest.update(struct.pack("<d", float(weight)))
    if priors is None:
        digest.update(b"\x00")
    else:
        digest.update(b"\x01")
        for entity_id in sorted(priors):
            raw = entity_id.encode("utf-8")
            digest.update(struct.pack("<Q", len(raw)))
            digest.update(raw)
            digest.update(struct.pack("<d", float(priors[entity_id])))
    return digest.hexdigest()


def build_blocks(
    entries: list[EntryTuple],
    *,
    priors: Mapping[str, float] | None = None,
) -> tuple[dict[str, bytes], dict[str, int], dict[str, Any]]:
    """Pack a deduplicated entry sequence into artifact blocks.

    Returns ``(blocks, counts, extra)`` ready for
    :func:`~repro.storage.artifact.write_artifact` (or an in-memory
    :class:`SynonymArtifact`).  With *priors* — a mapping covering every
    entity in *entries* (:func:`compute_priors` of a click log, or a merged
    delta state) — the artifact carries a priors block.  Packing is
    deterministic, so equal inputs produce equal content and state hashes.
    """
    pool = _StringPool()
    entry_text: list[int] = []
    entry_entity: list[int] = []
    entry_source: list[int] = []
    entry_weight: list[float] = []
    by_text: dict[int, list[int]] = {}
    max_entry_tokens = 0

    for text, entity_id, source, weight in entries:
        text_sid = pool.intern(text)
        by_text.setdefault(text_sid, []).append(len(entry_text))
        entry_text.append(text_sid)
        entry_entity.append(pool.intern(entity_id))
        entry_source.append(pool.intern(source))
        entry_weight.append(float(weight))

    token_to_texts: dict[int, set[int]] = {}
    for text_sid in by_text:
        tokens = tokenize(pool.strings[text_sid], normalized=True)
        max_entry_tokens = max(max_entry_tokens, len(tokens))
        for token in tokens:
            token_to_texts.setdefault(pool.intern(token), set()).add(text_sid)

    encoded = [text.encode("utf-8") for text in pool.strings]
    offsets = [0]
    for raw in encoded:
        offsets.append(offsets[-1] + len(raw))

    def by_bytes(sid: int) -> bytes:
        return encoded[sid]

    exact_text = sorted(by_text, key=by_bytes)
    exact_starts = [0]
    exact_entries: list[int] = []
    for text_sid in exact_text:
        exact_entries.extend(by_text[text_sid])
        exact_starts.append(len(exact_entries))

    token_text = sorted(token_to_texts, key=by_bytes)
    token_starts = [0]
    token_postings: list[int] = []
    for token_sid in token_text:
        token_postings.extend(sorted(token_to_texts[token_sid], key=by_bytes))
        token_starts.append(len(token_postings))

    blocks = {
        "strings.blob": b"".join(encoded),
        "strings.offsets": _pack(_U64, offsets),
        "entries.text": _pack(_U32, entry_text),
        "entries.entity": _pack(_U32, entry_entity),
        "entries.source": _pack(_U32, entry_source),
        "entries.weight": _pack(_F64, entry_weight),
        "exact.text": _pack(_U32, exact_text),
        "exact.starts": _pack(_U32, exact_starts),
        "exact.entries": _pack(_U32, exact_entries),
        "token.text": _pack(_U32, token_text),
        "token.starts": _pack(_U32, token_starts),
        "token.postings": _pack(_U32, token_postings),
    }

    counts = {
        "entries": len(entry_text),
        "unique_texts": len(exact_text),
        "tokens": len(token_text),
        "strings": len(pool.strings),
    }
    emitted_priors: dict[str, float] | None = None
    if priors is not None:
        present = {pool.strings[entity_sid] for entity_sid in entry_entity}
        missing = sorted(present - set(priors))
        if missing:
            raise ArtifactError(
                f"priors mapping is missing {len(missing)} entities "
                f"(first: {missing[0]!r})"
            )
        emitted_priors = {entity_id: float(priors[entity_id]) for entity_id in present}
    if emitted_priors is not None:
        prior_entities = sorted(
            {entity_sid for entity_sid in entry_entity}, key=by_bytes
        )
        blocks["priors.entity"] = _pack(_U32, prior_entities)
        blocks["priors.value"] = _pack(
            _F64,
            (emitted_priors[pool.strings[entity_sid]] for entity_sid in prior_entities),
        )
        counts["prior_entities"] = len(prior_entities)

    extra = {
        "layout_version": LAYOUT_VERSION,
        "max_entry_tokens": max_entry_tokens,
        **_HOST_LAYOUT,
        "has_priors": emitted_priors is not None,
        "state_hash": state_hash(entries, emitted_priors),
    }
    return blocks, counts, extra


def compile_entries(
    entries: list[EntryTuple],
    path: str | Path,
    *,
    version: str = "1",
    config_fingerprint: str = "",
    created_unix: float | None = None,
    priors: Mapping[str, float] | None = None,
) -> ArtifactManifest:
    """Write an already-deduplicated entry sequence as a full artifact."""
    blocks, counts, extra = build_blocks(entries, priors=priors)
    return write_artifact(
        path,
        blocks,
        kind=ARTIFACT_KIND,
        version=version,
        counts=counts,
        extra=extra,
        config_fingerprint=config_fingerprint,
        created_unix=created_unix,
    )


def compile_dictionary(
    dictionary: Iterable[DictionaryEntry],
    path: str | Path,
    *,
    version: str = "1",
    config_fingerprint: str = "",
    created_unix: float | None = None,
    click_log: ClickVolumeSource | None = None,
) -> ArtifactManifest:
    """Freeze *dictionary* into an immutable artifact file at *path*.

    *dictionary* is any iterable of :class:`DictionaryEntry` — the
    builders in :mod:`repro.matching.index` produce them; it is
    deduplicated with :func:`dedupe_entries` first.  The write is atomic
    (temp file + rename), which
    is what makes live hot-swap via
    :meth:`~repro.serving.service.MatchService.reload` safe.

    When *click_log* is given, a **priors block** is embedded: for every
    entity, the summed click volume of all its dictionary strings — exactly
    the quantity :meth:`~repro.matching.resolver.MatchResolver.prior`
    computes from a live log, precomputed so ranked resolution works
    offline from the artifact alone.
    """
    entries = dedupe_entries(dictionary)
    return compile_entries(
        entries,
        path,
        version=version,
        config_fingerprint=config_fingerprint,
        created_unix=created_unix,
        priors=None if click_log is None else compute_priors(entries, click_log),
    )


class SynonymArtifact:
    """A compiled dictionary, served straight from its packed arrays.

    Implements :class:`~repro.matching.index.DictionaryIndex` for
    :class:`~repro.matching.matcher.QueryMatcher` (and the segmenter and
    resolver).  File-backed, in-memory and delta-applied instances all
    answer exactly as the brute-force reference in ``tests/oracle`` does
    over the same entries.  Instances are immutable views over one loaded
    file; strings are decoded lazily and cached, and iteration yields each
    entry as a plain :data:`EntryTuple`.

    The packed arrays are zero-copy typed views (``memoryview.cast``) over
    the mapped file or the in-memory blocks alike, so construction copies
    nothing; :func:`_check_layout` has refused every file not written in
    this host's byte order.  When *mapping* is the
    :class:`~repro.storage.artifact.ArtifactMapping` the blocks came from,
    the typed views are registered with it so :meth:`close` can tear the
    map down deterministically.
    """

    def __init__(
        self,
        manifest: ArtifactManifest,
        blocks: Mapping[str, memoryview],
        *,
        mapping: ArtifactMapping | None = None,
    ) -> None:
        _check_layout(manifest, kind=ARTIFACT_KIND, layout=LAYOUT_VERSION)
        self.manifest = manifest
        self._mapping = mapping

        def typed(name: str, typecode: str) -> memoryview:
            return _typed(blocks, name, typecode, mapping)

        self._blob = typed("strings.blob", "B")
        self._offsets = typed("strings.offsets", _U64)
        self._entry_text = typed("entries.text", _U32)
        self._entry_entity = typed("entries.entity", _U32)
        self._entry_source = typed("entries.source", _U32)
        self._entry_weight = typed("entries.weight", _F64)
        self._exact_text = typed("exact.text", _U32)
        self._exact_starts = typed("exact.starts", _U32)
        self._exact_entries = typed("exact.entries", _U32)
        self._token_text = typed("token.text", _U32)
        self._token_starts = typed("token.starts", _U32)
        self._token_postings = typed("token.postings", _U32)
        self._prior_entity: memoryview | None
        self._prior_value: memoryview | None
        if "priors.entity" in blocks:
            self._prior_entity = typed("priors.entity", _U32)
            self._prior_value = typed("priors.value", _F64)
        else:
            self._prior_entity = None
            self._prior_value = None
        self._strings = _DecodedStrings(self._blob, self._offsets)
        self._by_entity: dict[str, list[int]] | None = None
        self._priors: dict[str, float] | None = None
        self._word_counts: Counter[int] | None = None

    @classmethod
    def load(
        cls,
        path: str | Path,
        *,
        # Accepted and ignored: every load maps and verifies the file, and
        # the frozen harness (benchmarks/perf/layers.py) still passes both;
        # ROADMAP open item 1 frees the spellings.
        verify: bool = True,
        mmap: bool = False,
    ) -> "SynonymArtifact":
        """Cold-load an artifact: one read-only map plus typed views.

        The returned artifact owns the mapping (see :meth:`close`), and
        every worker process loading the same file shares its physical
        pages.
        """
        manifest, mapping = read_artifact(path, expected_kind=ARTIFACT_KIND)
        try:
            return cls(manifest, mapping, mapping=mapping)
        except BaseException:
            mapping.close()
            raise

    # ------------------------------------------------------------------ #
    # Mapping ownership
    # ------------------------------------------------------------------ #

    @property
    def is_mapped(self) -> bool:
        """True when this artifact serves out of an ``mmap``'d file."""
        return self._mapping is not None

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran (always False for in-memory artifacts)."""
        return self._mapping is not None and self._mapping.closed

    def close(self) -> bool:
        """Release the underlying file mapping (no-op for in-memory artifacts).

        Returns True when the map was torn down now (or there was none);
        False when live outside views deferred the unmap to CPython's
        refcounting.  Either way the artifact must not serve lookups after
        a close.
        """
        if self._mapping is None:
            return True
        return self._mapping.close()

    def __enter__(self) -> "SynonymArtifact":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @classmethod
    def from_blocks(
        cls,
        blocks: Mapping[str, bytes],
        *,
        version: str,
        counts: Mapping[str, int],
        extra: Mapping[str, Any],
        config_fingerprint: str = "",
        created_unix: float = 0.0,
    ) -> "SynonymArtifact":
        """Build an in-memory artifact straight from compiled blocks.

        Used by delta application to materialize the post-apply artifact
        without touching disk.  The manifest's ``blocks`` spans are not
        file offsets (there is no file); everything else — including the
        content hash — is exactly what :func:`compile_entries` would write.
        """
        manifest = ArtifactManifest(
            kind=ARTIFACT_KIND,
            version=version,
            created_unix=created_unix,
            counts=dict(counts),
            extra=dict(extra),
            config_fingerprint=config_fingerprint,
            content_hash=content_hash(blocks),
            blocks={name: (0, len(blocks[name])) for name in blocks},
        )
        return cls(manifest, {name: memoryview(data) for name, data in blocks.items()})

    @classmethod
    def from_entries(
        cls, entries: Iterable[DictionaryEntry | EntryTuple]
    ) -> "SynonymArtifact":
        """Compile *entries* in memory, without priors and without a file.

        For one-shot consumers (``repro match --synonyms``, the examples)
        that would otherwise need a second index.
        """
        blocks, counts, extra = build_blocks(dedupe_entries(entries))
        return cls.from_blocks(blocks, version="1", counts=counts, extra=extra)

    @staticmethod
    def peek_manifest(path: str | Path) -> ArtifactManifest:
        """Read an artifact's manifest without loading its payload."""
        return read_manifest(path)

    def _find(self, sorted_sids: memoryview, needle: str) -> int:
        """Binary search *needle* in a byte-sorted string-id array (-1 miss).

        Compares decoded strings: UTF-8 byte order is code-point order, so
        the byte-sorted blocks are sorted for ``str`` comparison too.  Each
        string the search touches is decoded once and kept.
        """
        strings = self._strings
        slot = bisect_left(sorted_sids, needle, key=strings.__getitem__)
        if slot < len(sorted_sids) and strings[sorted_sids[slot]] == needle:
            return slot
        return -1

    # ------------------------------------------------------------------ #
    # DictionaryIndex protocol
    # ------------------------------------------------------------------ #

    def entities_for(self, text: str) -> set[str]:
        """Entity ids the exact string refers to (empty set when unknown).

        Reads the entity ids straight off the entry arrays.
        """
        slot = self._find(self._exact_text, normalize(text))
        if slot < 0:
            return set()
        entity, exact_entries = self._entry_entity, self._exact_entries
        return {
            self._strings[entity[exact_entries[i]]]
            for i in range(self._exact_starts[slot], self._exact_starts[slot + 1])
        }

    def has_token(self, token: str) -> bool:
        """Whether *token* is a word of some dictionary string (taken raw)."""
        return self._find(self._token_text, token) >= 0

    def strings_containing_token(self, token: str) -> TokenPostings:
        """Dictionary strings containing *token* (fuzzy-fallback shortlist).

        A :class:`~repro.matching.index.TokenPostings` view over the
        token's ``token.postings`` slice: string ids in byte order, decoded
        only when the view is iterated or probed.  The token is looked up
        raw — callers (the fuzzy fallback) tokenize normalized queries, so
        tokens are already normalized.
        """
        slot = self._find(self._token_text, token)
        start, end = (0, 0) if slot < 0 else self._token_starts[slot : slot + 2]
        return TokenPostings(
            self._token_postings[start:end], self._strings.__getitem__, self.word_counts
        )

    def word_counts(self) -> Mapping[int, int]:
        """String id → number of distinct words, for every dictionary string.

        A string sits once in the postings of each of its distinct words,
        so counting ids over ``token.postings`` (one pass in C, no string
        decoded) gives exactly that number.  Built on first use, not at
        load, and published only once complete, so threads need no lock.
        """
        counts = self._word_counts
        if counts is None:
            counts = self._word_counts = Counter(self._token_postings)
        return counts

    def strings_for_entity(self, entity_id: str) -> list[str]:
        """Every dictionary string referring to *entity_id*."""
        if self._by_entity is None:
            grouped: dict[int, list[int]] = {}
            for entry_id, entity_sid in enumerate(self._entry_entity):
                grouped.setdefault(entity_sid, []).append(entry_id)
            self._by_entity = {
                self._strings[entity_sid]: ids for entity_sid, ids in grouped.items()
            }
        return [
            self._strings[self._entry_text[entry_id]]
            for entry_id in self._by_entity.get(entity_id, ())
        ]

    @property
    def max_entry_tokens(self) -> int:
        """Length (in tokens) of the longest dictionary string (precomputed)."""
        return int(self.manifest.extra.get("max_entry_tokens", 0))

    # ------------------------------------------------------------------ #
    # Click priors
    # ------------------------------------------------------------------ #

    @property
    def has_priors(self) -> bool:
        """True when this artifact carries a click-prior block."""
        return self._prior_entity is not None

    def prior(self, entity_id: str) -> float:
        """Click-volume prior of one entity (0.0 when it is not in the block).

        A binary search of the byte-sorted ``priors.entity`` block, like an
        exact or token lookup: nothing but the strings the search touches
        is decoded.  Equals ``priors().get(entity_id, 0.0)``; an artifact
        compiled without priors answers 0.0 for every entity (check
        :attr:`has_priors` first).
        """
        if self._prior_entity is None or self._prior_value is None:
            return 0.0
        slot = self._find(self._prior_entity, entity_id)
        return 0.0 if slot < 0 else self._prior_value[slot]

    def priors(self) -> dict[str, float] | None:
        """Entity id → click-volume prior, or ``None`` when compiled without.

        The mapping is exactly what
        :meth:`~repro.matching.resolver.MatchResolver.prior` would compute
        entity by entity from the live click log the artifact was compiled
        against; decoded once and cached.  It decodes every entity id of
        the block, so only whole-state readers call it (delta apply and
        diff); serving reads one entity at a time through :meth:`prior`.
        """
        if self._prior_entity is None or self._prior_value is None:
            return None
        if self._priors is None:
            self._priors = {
                self._strings[entity_sid]: value
                for entity_sid, value in zip(self._prior_entity, self._prior_value)
            }
        return self._priors

    # ------------------------------------------------------------------ #
    # State: identity, deltas and the entries
    # ------------------------------------------------------------------ #

    @property
    def state_hash(self) -> str:
        """Logical state identity: the hash deltas chain on.

        See :func:`state_hash` and :mod:`repro.serving.delta`.
        """
        return str(self.manifest.extra["state_hash"])

    def apply_delta(self, delta: "DictionaryDelta") -> "SynonymArtifact":
        """Apply a :class:`~repro.serving.delta.DictionaryDelta` in memory.

        Returns the post-apply artifact; refuses (with
        :class:`~repro.storage.artifact.ArtifactError`) a delta built
        against a different base state.  See
        :func:`repro.serving.delta.apply_delta` for the full contract.
        """
        from repro.serving.delta import apply_delta

        return apply_delta(self, delta)

    def __len__(self) -> int:
        return len(self._entry_text)

    def __iter__(self) -> Iterator[EntryTuple]:
        """Every entry as a plain ``(text, entity, source, weight)`` tuple.

        In compile order, read straight off the entry columns: the sequence
        the state hash is defined over and delta application merges over.
        """
        strings = self._strings.__getitem__
        return zip(
            map(strings, self._entry_text),
            map(strings, self._entry_entity),
            map(strings, self._entry_source),
            self._entry_weight,
        )

    # Not a container: without this, ``text in artifact`` would fall back
    # to ``__iter__`` and compare the string with each entry tuple, False
    # for every string.  Membership is ``entities_for(text)``.
    __contains__ = None
