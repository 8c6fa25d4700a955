"""Incremental refresh of the synonym dictionary as new log data arrives.

The paper's miner is an offline batch job over months of logs.  Operating
it continuously raises an obvious follow-up: when a new day of click data
lands, which entities actually need re-mining?  Because a candidate's IPC
and ICR only depend on the clicks touching the entity's *surrogate pages*
(plus the candidate query's own total volume), an entity's synonym set can
only change when

* a click lands on one of its surrogate URLs (new candidate or changed
  intersection), or
* the click volume of one of its candidate queries changes anywhere (the
  ICR denominator moves).

Search Data is fixed for a miner's lifetime: the surrogate set of a tracked
entity is read once, when it is tracked, and only Click Data streams in.
The candidates of an entity ``v`` are the queries other than ``v`` that
clicked one of its surrogates (Definition 6), so the second rule is read
off the click log: a click by query ``q`` dirties every owner of a
surrogate among ``q``'s clicked URLs, ``q`` itself excepted.  No candidate
graph is stored.  A query that became a candidate of ``v`` after ``v`` was
last mined did so by a click on one of ``v``'s surrogates, which already
dirtied ``v`` under the first rule.

:class:`IncrementalSynonymMiner` re-mines only the affected entities on
:meth:`refresh`, keeping the rest of the cached result untouched.  On the
simulated workloads this reduces a daily refresh from "re-mine the whole
catalog" to re-mining the handful of entities whose traffic actually moved.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.clicklog.log import ClickLog, SearchLog
from repro.clicklog.records import ClickRecord
from repro.core.config import MinerConfig
from repro.core.pipeline import SynonymMiner
from repro.core.types import MiningResult
from repro.text.normalize import normalize

if TYPE_CHECKING:  # serving and the catalog sit above core in the layering
    from repro.serving.delta import DictionaryState
    from repro.simulation.catalog import EntityCatalog
    from repro.storage.artifact import ArtifactManifest

__all__ = ["IncrementalSynonymMiner"]


class IncrementalSynonymMiner:
    """Maintains an up-to-date :class:`MiningResult` under log updates.

    Every refresh runs the in-process mining loop over the live logs; no
    score outlives the result it belongs to, and :meth:`ingest_clicks`
    marks dirty exactly the entities a click can move: the owners of the
    clicked URL, and the owners of every surrogate the clicking query has
    clicked, which it reads from the click log.  The only dependency state
    kept is the URL → tracked-values map built from Search Data; a value is
    tracked once it is in the result or dirty.
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
        self._url_to_values: dict[str, set[str]] = {}
        self._dirty: set[str] = set()
        self._result = MiningResult()
        # Bumped by every refresh that re-mined something; stamps published
        # artifacts so servers can tell which refresh they are serving.
        self._generation = 0
        # Delta-publish bookkeeping: the last published state and its
        # canonical -> entity id map, and which canonicals were re-mined and
        # which queries received clicks since then (see _publish_delta).
        self._published: DictionaryState | None = None
        self._published_ids: dict[str, str] = {}
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
            if canonical in self._result or canonical in self._dirty:
                continue
            self._dirty.add(canonical)
            for url in self._miner.surrogates(canonical):
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
        url_to_values = self._url_to_values
        dirty = self._dirty
        count = 0
        for record in records:
            self.click_log.add(record)
            count += 1
            query = record.query
            self._clicked_since_publish.add(query)
            affected = url_to_values.get(record.url)
            if affected:
                dirty.update(affected)
            # The query's total volume changed, which moves its ICR for every
            # entity it is a candidate of: each owner of a surrogate it
            # clicked, except the query itself (Definition 6).
            for url in self.click_log.urls_clicked_for(query):
                for value in url_to_values.get(url, ()):
                    if value != query:
                        dirty.add(value)
        return count

    # ------------------------------------------------------------------ #
    # Refresh
    # ------------------------------------------------------------------ #

    def refresh(self) -> list[str]:
        """Re-mine every dirty entity and return the list of refreshed values."""
        if not self._dirty:
            return []
        refreshed = sorted(self._dirty)
        for entry in self._miner.mine_iter(refreshed):
            self._result.add(entry)
        self._dirty.clear()
        self._generation += 1
        self._changed_since_publish.update(refreshed)
        return refreshed

    # ------------------------------------------------------------------ #
    # Publication
    # ------------------------------------------------------------------ #

    def publish(
        self, catalog: EntityCatalog, path: str | Path, *, delta: bool = False
    ) -> ArtifactManifest:
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

        With ``delta=True`` the publish is **incremental**: a layout-3
        delta sidecar against the last publish is written to
        ``<path>.delta`` (see :func:`~repro.serving.delta.delta_path_for`)
        by the one delta rule, :func:`~repro.serving.delta.write_diff`:
        changed = entities whose entry group differs, removed = base
        entities with no new group, prior updates = changed entities or
        those whose prior moved.  It runs over the dirty scope only
        (:meth:`_publish_delta`), so entry building and prior sums scale
        with the dirty set, not the catalog, and the sidecar is the one
        :func:`~repro.serving.delta.diff_delta` writes over every entity.
        A server watching *path* applies the sidecar in memory; applying it
        reproduces, content hash for content hash, what a full publish
        would have written.  Requires a prior publish as the base (the
        first publish must be full); click traffic must arrive via
        :meth:`ingest_clicks` for prior updates to be tracked.
        """
        # Imported lazily: matching and serving sit above core in the layering.
        from repro.matching.index import entries_from_mining_result
        from repro.serving.artifact import compile_entries, compute_priors, dedupe_entries
        from repro.serving.delta import DictionaryState, delta_path_for

        path = Path(path)
        by_name = catalog.by_canonical_name()
        ids = {
            canonical: by_name[canonical].entity_id
            for canonical in self._result.per_entity
            if canonical in by_name
        }
        if delta:
            manifest, self._published = self._publish_delta(catalog, ids, delta_path_for(path))
        else:
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
            self._published = DictionaryState(
                manifest.version, str(manifest.extra["state_hash"]),
                manifest.content_hash, entries, priors,
            )  # fmt: skip
        self._published_ids = ids
        self._changed_since_publish.clear()
        self._clicked_since_publish.clear()
        return manifest

    def _publish_delta(
        self, catalog: EntityCatalog, ids: dict[str, str], sidecar: Path
    ) -> tuple[ArtifactManifest, DictionaryState]:
        """Write the delta against the last publish over the dirty scope.

        *ids* maps each mined canonical the catalog lists to its entity id.
        The scope is every entity whose entries or prior can have moved
        since the last publish: the entities of canonicals re-mined since
        then or whose catalog id moved (old and new ids — a delisted,
        newly listed or remapped canonical is not dirty, yet a full compile
        moves it), and the entities owning a clicked dictionary string.
        Every other entity has the base's entries and prior.
        """
        from repro.matching.index import entries_from_mining_result
        from repro.serving.artifact import compute_priors, dedupe_entries
        from repro.serving.delta import write_diff

        base = self._published
        if base is None:
            raise ValueError(
                "no published base: publish a full artifact before delta=True"
            )
        old_ids = self._published_ids
        moved = {
            canonical
            for canonical in ids.keys() | old_ids.keys()
            if ids.get(canonical) != old_ids.get(canonical)
        }
        touched = self._changed_since_publish | moved
        scope = {ids[canonical] for canonical in touched if canonical in ids}
        scope.update(old_ids[canonical] for canonical in touched if canonical in old_ids)
        clicked = self._clicked_since_publish
        scope.update(entity_id for text, entity_id, _source, _weight in base.entries
                     if text in clicked)  # fmt: skip

        in_scope = MiningResult()
        for canonical, entity_id in ids.items():
            if entity_id in scope:
                in_scope.add(self._result[canonical])
        entries = dedupe_entries(entries_from_mining_result(in_scope, catalog))
        return write_diff(
            base, entries, compute_priors(entries, self.click_log), sidecar,
            version=f"gen-{self._generation}", scope=scope,
            config_fingerprint=self.config.fingerprint(),
        )  # fmt: skip
