"""Delta artifacts: incremental publish/apply for compiled dictionaries.

A full :class:`~repro.serving.artifact.SynonymArtifact` republish ships the
whole dictionary even when one entity changed — on a million-entity catalog
that is megabytes of transfer and a full recompile to move one synonym.
This module is the incremental path: a **delta sidecar** (layout 3 in
``docs/ARTIFACT_FORMAT.md``, kind ``"synonym-dictionary-delta"``) carries
only what changed since a *base* artifact:

* **changed entities** — each with its complete new entry list (replace
  semantics: the base entity's entries are dropped and these take their
  place, so shrinking a synonym set removes stale postings);
* **removed entities** — dropped outright;
* **prior updates** — new click-volume priors for entities whose traffic
  moved, including entities whose *entries* did not change.

Chaining is verified by state hash: the delta manifest names its base
(``base_state_hash``, plus ``base_content_hash`` when the publisher knows
it) and its target (``state_hash``); :func:`apply_delta` refuses a
mismatched base and checks that the merged result lands exactly on the
recorded target.  Because compilation is deterministic, ``gen-0`` plus N
applied deltas is content-hash-identical to a full compile at ``gen-N``
(``tests/oracle`` checks it at every generation it publishes).

One rule decides every change set, :func:`write_diff`: given a base
:class:`DictionaryState` and the new entries and priors of a set of
entities, an entity is *changed* when its entry group differs from the
base's, *removed* when the base has it and the new state does not, and gets
a *prior update* when it changed or its prior moved.  Two producers call
it: :func:`diff_delta` (the CLI ``compile --delta`` path) over every
entity, and :meth:`repro.core.incremental.IncrementalSynonymMiner.publish`
with ``delta=True`` over its dirty scope, so both write the same sidecar
for the same base and new state.  Consumers:
:func:`apply_delta` / ``python -m repro delta-apply`` offline, and
:meth:`repro.serving.service.MatchService.maybe_reload`, which watches the
``<artifact>.delta`` sidecar (see :func:`delta_path_for`) and applies it in
memory instead of cold-loading a full file.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Container, Iterable, Mapping, Sequence

from repro.matching.index import DictionaryEntry
from repro.serving.artifact import (
    ARTIFACT_KIND,
    ClickVolumeSource,
    EntryTuple,
    SynonymArtifact,
    _F64,
    _HOST_LAYOUT,
    _StringPool,
    _U32,
    _U64,
    _check_layout,
    _pack,
    _typed,
    build_blocks,
    compute_priors,
    dedupe_entries,
    state_hash,
)
from repro.storage.artifact import (
    ArtifactError,
    ArtifactManifest,
    read_artifact,
    write_artifact,
)

__all__ = [
    "DELTA_KIND",
    "DELTA_LAYOUT_VERSION",
    "delta_path_for",
    "write_delta",
    "DictionaryDelta",
    "DictionaryState",
    "merge_state",
    "apply_delta",
    "write_diff",
    "diff_delta",
]

DELTA_KIND = "synonym-dictionary-delta"
# Layout 2 is the full artifact (see repro.serving.artifact); layout 3 is
# this sidecar.  Each reader accepts only its own kind and layout, so a
# full-artifact reader refuses a sidecar on the kind check, never on a
# misparse.
DELTA_LAYOUT_VERSION = 3


def delta_path_for(path: str | Path) -> Path:
    """The sidecar path a delta for *path* is published to (``<path>.delta``).

    One convention shared by the publisher
    (:meth:`~repro.core.incremental.IncrementalSynonymMiner.publish`) and
    the consumer (:meth:`~repro.serving.service.MatchService.maybe_reload`),
    so a server watching an artifact file needs no extra configuration to
    pick up deltas.
    """
    return Path(str(path) + ".delta")


def write_delta(
    path: str | Path,
    *,
    version: str,
    base_version: str,
    base_state_hash: str,
    target_state_hash: str,
    changed: Sequence[tuple[str, Sequence[EntryTuple]]],
    removed: Sequence[str],
    prior_updates: Mapping[str, float] | None,
    base_content_hash: str = "",
    config_fingerprint: str = "",
    created_unix: float | None = None,
) -> ArtifactManifest:
    """Atomically write a delta sidecar (layout 3) to *path*.

    *changed* is ordered: entities already in the base are replaced in
    place, entities new to the base are appended in this order — which is
    what lets an applied delta reproduce the entry order (and therefore the
    content hash) of a full compile.  *base_content_hash* is optional
    because a publisher chaining delta-on-delta never materializes the
    intermediate full artifact; the state hashes carry the verification.
    """
    if not base_state_hash:
        raise ValueError("base_state_hash is required (the base must carry one)")
    changed_ids = {entity_id for entity_id, _group in changed}
    if len(changed_ids) != len(changed):
        raise ValueError("changed entities must be unique")
    overlap = changed_ids & set(removed)
    if overlap:
        raise ValueError(f"entities both changed and removed: {sorted(overlap)[:3]}")

    pool = _StringPool()
    changed_entity = [pool.intern(entity_id) for entity_id, _group in changed]
    changed_starts = [0]
    changed_text: list[int] = []
    changed_source: list[int] = []
    changed_weight: list[float] = []
    for _entity_id, entries in changed:
        for text, _entity, source, weight in entries:
            changed_text.append(pool.intern(text))
            changed_source.append(pool.intern(source))
            changed_weight.append(float(weight))
        changed_starts.append(len(changed_text))
    removed_entity = [pool.intern(entity_id) for entity_id in removed]

    blocks = {
        "changed.entity": _pack(_U32, changed_entity),
        "changed.starts": _pack(_U32, changed_starts),
        "changed.text": _pack(_U32, changed_text),
        "changed.source": _pack(_U32, changed_source),
        "changed.weight": _pack(_F64, changed_weight),
        "removed.entity": _pack(_U32, removed_entity),
    }
    counts = {
        "changed_entities": len(changed),
        "removed_entities": len(removed),
        "entries": len(changed_text),
    }
    if prior_updates is not None:
        prior_items = sorted(prior_updates.items())
        blocks["priors.entity"] = _pack(
            _U32, (pool.intern(entity_id) for entity_id, _value in prior_items)
        )
        blocks["priors.value"] = _pack(
            _F64, (float(value) for _entity_id, value in prior_items)
        )
        counts["prior_updates"] = len(prior_items)
    # The string pool is interned last-minute above, so encode after all
    # intern calls have run.
    encoded = [text.encode("utf-8") for text in pool.strings]
    offsets = [0]
    for raw in encoded:
        offsets.append(offsets[-1] + len(raw))
    blocks["strings.blob"] = b"".join(encoded)
    blocks["strings.offsets"] = _pack(_U64, offsets)

    return write_artifact(
        path,
        blocks,
        kind=DELTA_KIND,
        version=version,
        counts=counts,
        extra={
            "layout_version": DELTA_LAYOUT_VERSION,
            "base_version": base_version,
            "base_state_hash": base_state_hash,
            "base_content_hash": base_content_hash,
            "state_hash": target_state_hash,
            "has_priors": prior_updates is not None,
            **_HOST_LAYOUT,
        },
        config_fingerprint=config_fingerprint,
        created_unix=created_unix,
    )


class DictionaryDelta:
    """A loaded delta sidecar: the change set between two dictionary states.

    Instances are immutable views decoded once at load; the interesting
    surface is :attr:`changed` / :attr:`removed` / :attr:`prior_updates`
    plus the chain-verification hashes.  Apply one with
    :func:`apply_delta` or
    :meth:`~repro.serving.artifact.SynonymArtifact.apply_delta`.
    """

    def __init__(self, manifest: ArtifactManifest, blocks: Mapping[str, memoryview]) -> None:
        _check_layout(manifest, kind=DELTA_KIND, layout=DELTA_LAYOUT_VERSION)
        self.manifest = manifest

        blob = _typed(blocks, "strings.blob", "B")
        offsets = _typed(blocks, "strings.offsets", _U64)
        changed_entity = _typed(blocks, "changed.entity", _U32)
        changed_starts = _typed(blocks, "changed.starts", _U32)
        changed_text = _typed(blocks, "changed.text", _U32)
        changed_source = _typed(blocks, "changed.source", _U32)
        changed_weight = _typed(blocks, "changed.weight", _F64)
        removed_entity = _typed(blocks, "removed.entity", _U32)
        prior_entity = prior_value = None
        if "priors.entity" in blocks:
            prior_entity = _typed(blocks, "priors.entity", _U32)
            prior_value = _typed(blocks, "priors.value", _F64)

        def string(sid: int) -> str:
            return str(blob[offsets[sid] : offsets[sid + 1]], "utf-8")

        self.changed: list[tuple[str, list[EntryTuple]]] = []
        for slot, entity_sid in enumerate(changed_entity):
            entity_id = string(entity_sid)
            entries: list[EntryTuple] = [
                (
                    string(changed_text[i]),
                    entity_id,
                    string(changed_source[i]),
                    changed_weight[i],
                )
                for i in range(changed_starts[slot], changed_starts[slot + 1])
            ]
            self.changed.append((entity_id, entries))
        self.removed: list[str] = [string(sid) for sid in removed_entity]
        self.prior_updates: dict[str, float] | None = None
        if prior_entity is not None and prior_value is not None:
            self.prior_updates = {
                string(sid): value for sid, value in zip(prior_entity, prior_value)
            }

    @classmethod
    def load(cls, path: str | Path) -> "DictionaryDelta":
        """Load a delta sidecar; its content hash is always verified.

        Everything is decoded at construction, so the file is unmapped
        before this returns.
        """
        manifest, mapping = read_artifact(path, expected_kind=DELTA_KIND)
        with mapping:
            return cls(manifest, mapping)

    # Chain identities ------------------------------------------------- #

    @property
    def version(self) -> str:
        """Version label of the state this delta produces (e.g. ``gen-3``)."""
        return self.manifest.version

    @property
    def base_version(self) -> str:
        return str(self.manifest.extra.get("base_version", ""))

    @property
    def base_state_hash(self) -> str:
        return str(self.manifest.extra.get("base_state_hash", ""))

    @property
    def base_content_hash(self) -> str:
        """Container hash of the base file, or ``""`` when chained past it."""
        return str(self.manifest.extra.get("base_content_hash", ""))

    @property
    def state_hash(self) -> str:
        """State hash the applied artifact must land on."""
        return str(self.manifest.extra["state_hash"])


@dataclass(frozen=True)
class DictionaryState:
    """One dictionary state: what a delta is computed against and lands on.

    ``entries`` is the deduplicated entry sequence in compile order and
    ``priors`` its click priors (``None`` without a priors block);
    ``state_hash`` is :func:`~repro.serving.artifact.state_hash` of the
    two.  ``content_hash`` is the container hash of the full file holding
    this state, or ``""`` when it exists only as a base plus deltas.
    """

    version: str
    state_hash: str
    content_hash: str
    entries: list[EntryTuple]
    priors: dict[str, float] | None

    @classmethod
    def of(cls, artifact: SynonymArtifact) -> "DictionaryState":
        """The state a compiled artifact holds."""
        return cls(
            version=artifact.manifest.version,
            state_hash=artifact.state_hash,
            content_hash=artifact.manifest.content_hash,
            entries=list(artifact),
            priors=artifact.priors(),
        )


def merge_state(
    base_entries: Iterable[EntryTuple],
    base_priors: Mapping[str, float] | None,
    changed: Sequence[tuple[str, Sequence[EntryTuple]]],
    removed: Iterable[str],
    prior_updates: Mapping[str, float] | None,
) -> tuple[list[EntryTuple], dict[str, float] | None]:
    """Merge a change set onto a base state: ``(entries, priors)`` of the target.

    Replace semantics, order-preserving: a changed entity's new entries
    take the position of its first base entry (later base entries of that
    entity are dropped — this is what removes stale postings), entities new
    to the base are appended in *changed* order, removed entities disappear.
    The same function backs both :func:`write_diff` (computing the target
    state hash before writing) and :func:`apply_delta`, so the two can
    never disagree about what a delta means.
    """
    replacement = {entity_id: list(entries) for entity_id, entries in changed}
    dropped = set(removed) | set(replacement)
    emitted: set[str] = set()
    merged: list[EntryTuple] = []
    for entry in base_entries:
        entity_id = entry[1]
        if entity_id in dropped:
            if entity_id in replacement and entity_id not in emitted:
                merged.extend(replacement[entity_id])
                emitted.add(entity_id)
            continue
        merged.append(entry)
    for entity_id, entries in changed:
        if entity_id not in emitted:
            merged.extend(entries)
            emitted.add(entity_id)

    if (prior_updates is None) != (base_priors is None):
        raise ArtifactError(
            "priors mismatch: base "
            + ("lacks a priors block but the delta carries" if base_priors is None
               else "has a priors block but the delta lacks")
            + " prior updates"
        )  # fmt: skip
    if base_priors is None or prior_updates is None:
        return merged, None
    priors: dict[str, float] = {}
    for entity_id in sorted({entry[1] for entry in merged}):
        if entity_id in prior_updates:
            priors[entity_id] = float(prior_updates[entity_id])
        elif entity_id in base_priors:
            priors[entity_id] = float(base_priors[entity_id])
        else:
            raise ArtifactError(f"delta provides no prior for entity {entity_id!r}")
    return merged, priors


def apply_delta(
    base: SynonymArtifact,
    delta: DictionaryDelta,
    *,
    output_path: str | Path | None = None,
) -> SynonymArtifact:
    """Materialize the full artifact a delta describes on top of *base*.

    Verification, in order: the delta's ``base_state_hash`` must match
    the base's state hash, the delta's ``base_content_hash`` (when
    recorded) must match the base container hash, and the merged
    result must land exactly on the delta's target ``state_hash`` — so a
    divergent base can never silently produce a corrupted dictionary.

    Returns the in-memory post-apply artifact; with *output_path* the same
    blocks are also written (atomically) as a full layout-2 artifact file
    (``repro delta-apply``).
    """
    if delta.base_state_hash != base.state_hash:
        raise ArtifactError(
            f"delta base mismatch: delta {delta.version!r} was built against "
            f"{delta.base_version!r} (state {delta.base_state_hash[:12]}), but this "
            f"artifact is {base.manifest.version!r} (state {base.state_hash[:12]})"
        )
    if delta.base_content_hash and delta.base_content_hash != base.manifest.content_hash:
        raise ArtifactError(
            "delta base mismatch: base container hash differs from the one "
            "the delta was published against"
        )
    entries, priors = merge_state(
        base, base.priors(), delta.changed, delta.removed, delta.prior_updates
    )
    blocks, counts, extra = build_blocks(entries, priors=priors)
    if extra["state_hash"] != delta.state_hash:
        raise ArtifactError(
            "applied state hash mismatch: merging this delta did not produce "
            "the state it was published for (divergent base?)"
        )
    fingerprint = delta.manifest.config_fingerprint
    if output_path is not None:
        write_artifact(
            Path(output_path),
            blocks,
            kind=ARTIFACT_KIND,
            version=delta.version,
            counts=counts,
            extra=extra,
            config_fingerprint=fingerprint,
        )
    return SynonymArtifact.from_blocks(
        blocks,
        version=delta.version,
        counts=counts,
        extra=extra,
        config_fingerprint=fingerprint,
        created_unix=delta.manifest.created_unix,
    )


def write_diff(
    base: DictionaryState,
    entries: Sequence[EntryTuple],
    priors: Mapping[str, float] | None,
    path: str | Path,
    *,
    version: str,
    scope: Container[str] | None = None,
    config_fingerprint: str = "",
    created_unix: float | None = None,
) -> tuple[ArtifactManifest, DictionaryState]:
    """Write the delta from *base* to a new state; return that state.

    The one delta rule.  *entries* (deduplicated, in compile order) and
    *priors* are the new state of the entities in *scope*, or of every
    entity when *scope* is ``None``; an entity outside *scope* keeps its
    base entries and prior.  Over *scope*:

    * **changed** — entities whose entry group differs from the base's,
      in *entries* order;
    * **removed** — base entities with no new group;
    * **prior updates** — changed entities, and those whose prior moved.

    The change set is merged onto *base* (:func:`merge_state`), hashed and
    written to *path* (:func:`write_delta`).  The returned target state is
    what the next delta chains from; it has no full file, so its
    ``content_hash`` is ``""``.
    """
    new_groups = _groups(entries)
    base_groups = _groups(
        entry for entry in base.entries if scope is None or entry[1] in scope
    )
    changed = [
        (entity_id, group)
        for entity_id, group in new_groups.items()
        if base_groups.get(entity_id) != group
    ]
    removed = sorted(base_groups.keys() - new_groups.keys())
    prior_updates: dict[str, float] | None = None
    if priors is not None:
        changed_ids = {entity_id for entity_id, _group in changed}
        base_priors = base.priors or {}
        prior_updates = {
            entity_id: value
            for entity_id, value in priors.items()
            if entity_id in changed_ids or base_priors.get(entity_id) != value
        }
    merged_entries, merged_priors = merge_state(
        base.entries, base.priors, changed, removed, prior_updates
    )
    target = state_hash(merged_entries, merged_priors)
    manifest = write_delta(
        path,
        version=version,
        base_version=base.version,
        base_state_hash=base.state_hash,
        base_content_hash=base.content_hash,
        target_state_hash=target,
        changed=changed,
        removed=removed,
        prior_updates=prior_updates,
        config_fingerprint=config_fingerprint,
        created_unix=created_unix,
    )
    return manifest, DictionaryState(version, target, "", merged_entries, merged_priors)


def _groups(entries: Iterable[EntryTuple]) -> dict[str, list[EntryTuple]]:
    """Entity id → its entries, entities in first-seen order."""
    groups: dict[str, list[EntryTuple]] = {}
    for entry in entries:
        groups.setdefault(entry[1], []).append(entry)
    return groups


def diff_delta(
    base: SynonymArtifact,
    new_dictionary: Iterable[DictionaryEntry | EntryTuple],
    path: str | Path,
    *,
    version: str,
    config_fingerprint: str = "",
    click_log: ClickVolumeSource | None = None,
    created_unix: float | None = None,
) -> ArtifactManifest:
    """Diff *new_dictionary* against *base* and write the delta sidecar.

    :func:`write_diff` over every entity (``python -m repro compile
    --delta``).  *click_log* must be given iff the base carries priors.

    Applying the result reproduces the new dictionary's entries and
    priors; the entry *order* is the base's order with new entities
    appended, so the applied content hash equals a direct compile of
    *new_dictionary* exactly when the new dictionary extends the base
    in place (the common refresh shape).  Either way the delta is
    self-consistent: its recorded target state hash is the merged state,
    which :func:`apply_delta` verifies.
    """
    entries = dedupe_entries(new_dictionary)
    priors = None if click_log is None else compute_priors(entries, click_log)
    manifest, _target = write_diff(
        DictionaryState.of(base), entries, priors, path, version=version,
        config_fingerprint=config_fingerprint, created_unix=created_unix,
    )  # fmt: skip
    return manifest
