"""Incremental refresh of the synonym dictionary as new log data arrives.

The paper's miner is an offline batch job over months of logs.  Operating
it continuously raises an obvious follow-up: when a new day of click data
lands, which entities actually need re-mining?  Because a candidate's IPC
and ICR only depend on the clicks touching the entity's *surrogate pages*
(plus the candidate query's own total volume), an entity's synonym set can
only change when

* a click lands on one of its surrogate URLs (new candidate or changed
  intersection), or
* the click volume of one of its *current candidate queries* changes
  anywhere (the ICR denominator moves).

Search Data is fixed for a miner's lifetime: the surrogate set of a tracked
entity is read once, when it is tracked, and only Click Data streams in.

:class:`IncrementalSynonymMiner` tracks exactly those dependencies and
re-mines only the affected entities on :meth:`refresh`, keeping the rest of
the cached result untouched.  On the simulated workloads this reduces a
daily refresh from "re-mine the whole catalog" to re-mining the handful of
entities whose traffic actually moved.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.clicklog.log import ClickLog, SearchLog
from repro.clicklog.records import ClickRecord
from repro.core.config import MinerConfig
from repro.core.pipeline import SynonymMiner
from repro.core.types import MiningResult
from repro.text.normalize import normalize

if TYPE_CHECKING:  # serving sits above core in the layering
    from repro.serving.artifact import EntryTuple

__all__ = ["IncrementalSynonymMiner"]


@dataclass
class _PublishedState:
    """What the last publish shipped, kept so the next one can be a delta.

    ``entries`` is the full deduplicated entry sequence in compile order
    (tuples share strings with the mining result, so this is references,
    not copies); ``state_hash`` identifies it; ``content_hash`` is the
    container hash of the full file when the last publish wrote one (a
    delta publish leaves it ``""`` — the chained artifact is materialized
    by the consumer, not here).
    """

    version: str
    state_hash: str
    content_hash: str
    entries: "list[EntryTuple]"
    priors: dict[str, float] | None
    entity_of_canonical: dict[str, str]


class IncrementalSynonymMiner:
    """Maintains an up-to-date :class:`MiningResult` under log updates.

    Every refresh runs the in-process mining loop over the live logs; no
    score outlives the result it belongs to, and :meth:`ingest_clicks`
    marks dirty exactly the entities a click can move.
    """

    def __init__(
        self,
        *,
        search_log: SearchLog,
        click_log: ClickLog | None = None,
        config: MinerConfig | None = None,
        # Accepted and ignored: it sized a pool that no longer exists, and
        # the frozen harness (benchmarks/perf/offline.py) still passes it;
        # ROADMAP open item 1 frees the spelling.
        batch_workers: int | None = None,
    ) -> None:
        self.config = config or MinerConfig()
        self.search_log = search_log
        self.click_log = click_log if click_log is not None else ClickLog()
        self._miner = SynonymMiner(
            click_log=self.click_log, search_log=search_log, config=self.config
        )
        self._tracked: set[str] = set()
        self._url_to_values: dict[str, set[str]] = {}
        self._candidate_to_values: dict[str, set[str]] = {}
        # Reverse edges of _candidate_to_values: which candidate queries each
        # entity currently depends on.  Keeping both directions makes the
        # stale-edge sweep in refresh() O(entity's own candidates) instead of
        # O(dirty × whole candidate map).
        self._value_to_candidates: dict[str, set[str]] = {}
        self._dirty: set[str] = set()
        self._result = MiningResult()
        # Bumped by every refresh that re-mined something; stamps published
        # artifacts so servers can tell which refresh they are serving.
        self._generation = 0
        # Delta-publish bookkeeping: which canonicals were re-mined and
        # which queries received clicks since the last publish (the latter
        # bounds the prior recomputation — only entities owning a clicked
        # dictionary string can see their prior move).
        self._published: _PublishedState | None = None
        self._changed_since_publish: set[str] = set()
        self._clicked_since_publish: set[str] = set()

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #

    def track(self, values: Iterable[str]) -> None:
        """Register canonical strings whose synonyms should be maintained.

        Newly tracked values are marked dirty so the next :meth:`refresh`
        mines them from scratch.
        """
        for value in values:
            canonical = normalize(value)
            if canonical in self._tracked:
                continue
            self._tracked.add(canonical)
            self._dirty.add(canonical)
            for url in self.search_log.top_urls(canonical, k=self.config.surrogate_k):
                self._url_to_values.setdefault(url, set()).add(canonical)

    @property
    def result(self) -> MiningResult:
        """The cached mining result (call :meth:`refresh` to bring it up to date)."""
        return self._result

    @property
    def dirty_values(self) -> set[str]:
        """Canonical strings whose cached entry is stale."""
        return set(self._dirty)

    # ------------------------------------------------------------------ #
    # Log ingestion
    # ------------------------------------------------------------------ #

    def ingest_clicks(self, records: Iterable[ClickRecord]) -> int:
        """Add new click records and mark the affected entities dirty.

        Returns the number of records ingested.
        """
        count = 0
        for record in records:
            self.click_log.add(record)
            count += 1
            self._clicked_since_publish.add(record.query)
            affected = self._url_to_values.get(record.url)
            if affected:
                self._dirty.update(affected)
            dependents = self._candidate_to_values.get(record.query)
            if dependents:
                # The query's total volume changed, which moves its ICR for
                # every entity currently counting it as a candidate.
                self._dirty.update(dependents)
        return count

    # ------------------------------------------------------------------ #
    # Refresh
    # ------------------------------------------------------------------ #

    def refresh(self) -> list[str]:
        """Re-mine every dirty entity and return the list of refreshed values."""
        if not self._dirty:
            return []
        refreshed = sorted(self._dirty)
        for canonical in refreshed:
            # Drop stale candidate-dependency edges for this entity before
            # re-mining; they are rebuilt from the fresh candidate list.
            self._drop_candidate_edges(canonical)
        for entry in self._miner.mine_iter(refreshed):
            canonical = entry.canonical
            self._result.add(entry)
            depends_on = {candidate.query for candidate in entry.candidates}
            self._value_to_candidates[canonical] = depends_on
            for candidate in depends_on:
                self._candidate_to_values.setdefault(candidate, set()).add(canonical)
        self._dirty.clear()
        self._generation += 1
        self._changed_since_publish.update(refreshed)
        return refreshed

    def _drop_candidate_edges(self, canonical: str) -> None:
        """Remove *canonical* from the dependency edges it currently holds."""
        for candidate in self._value_to_candidates.pop(canonical, ()):
            dependents = self._candidate_to_values.get(candidate)
            if dependents is None:
                continue
            dependents.discard(canonical)
            if not dependents:
                del self._candidate_to_values[candidate]

    # ------------------------------------------------------------------ #
    # Publication
    # ------------------------------------------------------------------ #

    def publish(self, catalog, path, *, delta: bool = False):
        """Compile the current cached result into a serving artifact.

        The entries are every catalogued canonical string plus its selected
        synonyms (:func:`~repro.matching.index.entries_from_mining_result`),
        compiled straight into the artifact.  The artifact version is
        ``gen-<n>`` where *n* is the refresh generation, so successive
        publications of an incrementally maintained dictionary are
        distinguishable in their manifests; a
        :class:`~repro.serving.service.MatchService` watching *path* picks
        the new artifact up atomically.  The current click log is embedded
        as per-entity priors, so each published generation carries
        popularity consistent with the traffic it was mined from.  Call
        :meth:`refresh` first if there are dirty entities.  Returns the
        written manifest.

        With ``delta=True`` the publish is **incremental**: instead of
        recompiling the whole dictionary, a layout-3 delta sidecar is
        written to ``<path>.delta`` (see
        :func:`~repro.serving.delta.delta_path_for`) carrying only the
        entities re-mined since the last publish plus prior updates for
        entities whose click volume moved — payload and compile work scale
        with the dirty set, not the catalog.  A server watching *path*
        applies the sidecar in memory; applying it reproduces, content
        hash for content hash, what a full publish would have written.
        Requires a prior publish as the base (the first publish must be
        full); click traffic must arrive via :meth:`ingest_clicks` for
        prior updates to be tracked.
        """
        # Imported lazily: matching and serving sit above core in the layering.
        from repro.matching.index import entries_from_mining_result
        from repro.serving.artifact import compile_entries, compute_priors, dedupe_entries
        from repro.serving.delta import delta_path_for

        path = Path(path)
        if delta:
            return self._publish_delta(catalog, path)

        entries = dedupe_entries(entries_from_mining_result(self._result, catalog))
        priors = compute_priors(entries, self.click_log)
        manifest = compile_entries(
            entries,
            path,
            version=f"gen-{self._generation}",
            config_fingerprint=self.config.fingerprint(),
            priors=priors,
        )
        # A sidecar from an earlier generation no longer applies to this
        # base; leaving it around would only cost watchers a skip.
        delta_path_for(path).unlink(missing_ok=True)
        by_name = catalog.by_canonical_name()
        self._published = _PublishedState(
            version=manifest.version,
            state_hash=str(manifest.extra["state_hash"]),
            content_hash=manifest.content_hash,
            entries=entries,
            priors=priors,
            entity_of_canonical={
                canonical: by_name[canonical].entity_id
                for canonical in self._result.per_entity
                if canonical in by_name
            },
        )
        self._changed_since_publish.clear()
        self._clicked_since_publish.clear()
        return manifest

    def _publish_delta(self, catalog, path):
        from repro.matching.index import entries_from_mining_result
        from repro.serving.artifact import compute_priors, dedupe_entries, state_hash
        from repro.serving.delta import _DeltaSpec, delta_path_for, merge_state, write_delta

        base = self._published
        if base is None:
            raise ValueError(
                "no published base: publish a full artifact before delta=True"
            )

        by_name = catalog.by_canonical_name()
        # The changed set covers re-mined canonicals *and* canonicals whose
        # catalog mapping moved since the last publish: a delisted entity
        # must be removed (a full compile would drop it) and a newly listed
        # or remapped canonical must ship its entries, even though neither
        # made the canonical dirty.  Pure dict lookups — no re-mining.
        changed: set[str] = set(self._changed_since_publish)
        removed: set[str] = set()
        for canonical in self._result.per_entity:
            old_id = base.entity_of_canonical.get(canonical)
            entity = by_name.get(canonical)
            new_id = entity.entity_id if entity is not None else None
            if old_id != new_id:
                if old_id is not None:
                    removed.add(old_id)
                if new_id is not None:
                    changed.add(canonical)

        # Keep per_entity (i.e. compile) order: replaced-in-place entities
        # keep their position, new ones append in this order — which is
        # what makes base + delta reproduce a full compile byte for byte.
        changed_canonicals = [
            canonical for canonical in self._result.per_entity if canonical in changed
        ]
        sub = MiningResult()
        for canonical in changed_canonicals:
            sub.add(self._result[canonical])
        mini_entries = dedupe_entries(entries_from_mining_result(sub, catalog))
        groups: dict[str, list] = {}
        order: list[str] = []
        for entry in mini_entries:
            entity_id = entry[1]
            if entity_id not in groups:
                groups[entity_id] = []
                order.append(entity_id)
            groups[entity_id].append(entry)
        removed -= set(groups)
        # A changed entity that compiled to no entries (a canonical that
        # normalizes to nothing, with no synonyms) is a removal too: a full
        # compile would not emit it at all.
        for canonical in changed_canonicals:
            entity = by_name.get(canonical)
            if entity is not None and entity.entity_id not in groups:
                removed.add(entity.entity_id)

        prior_updates = compute_priors(mini_entries, self.click_log)
        # Unchanged entities whose strings received clicks: their prior
        # moved even though their entries did not.  One scan of the base
        # entries that allocates nothing per entry.
        clicked = self._clicked_since_publish
        untouched_dirty = {
            entity_id
            for text, entity_id, _source, _weight in base.entries
            if text in clicked and entity_id not in prior_updates and entity_id not in removed
        }
        if untouched_dirty:
            dirty_entries = [
                entry for entry in base.entries if entry[1] in untouched_dirty
            ]
            prior_updates.update(compute_priors(dirty_entries, self.click_log))

        spec = _DeltaSpec(
            [(entity_id, groups[entity_id]) for entity_id in order],
            sorted(removed),
            prior_updates,
        )
        merged_entries, merged_priors = merge_state(base.entries, base.priors, spec)
        new_state_hash = state_hash(merged_entries, merged_priors)
        sidecar = delta_path_for(path)
        manifest = write_delta(
            sidecar,
            version=f"gen-{self._generation}",
            base_version=base.version,
            base_state_hash=base.state_hash,
            base_content_hash=base.content_hash,
            target_state_hash=new_state_hash,
            changed=spec.changed,
            removed=spec.removed,
            prior_updates=prior_updates,
            config_fingerprint=self.config.fingerprint(),
        )
        entity_of_canonical = {
            canonical: by_name[canonical].entity_id
            for canonical in self._result.per_entity
            if canonical in by_name
        }
        self._published = _PublishedState(
            version=manifest.version,
            state_hash=new_state_hash,
            content_hash="",
            entries=merged_entries,
            priors=merged_priors,
            entity_of_canonical=entity_of_canonical,
        )
        self._changed_since_publish.clear()
        self._clicked_since_publish.clear()
        return manifest
