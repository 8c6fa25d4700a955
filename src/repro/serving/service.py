"""The online serving layer: a query-matching service over one artifact.

:class:`MatchService` is what a production front-end would hold instead of
a bare :class:`~repro.matching.matcher.QueryMatcher`:

* it **owns the artifact** — constructed from a path, it maps the
  compiled :class:`~repro.serving.artifact.SynonymArtifact` read-only and
  builds the matcher over it;
* it **caches** — results are memoized per *normalized* query in a bounded
  LRU, so the head of a production query distribution is answered without
  re-running segmentation or the fuzzy fallback;
* it **hot-swaps** — :meth:`reload` builds the new artifact, matcher and a
  fresh cache completely off to the side and then repoints one attribute,
  so an incremental refresh can publish a new artifact file (atomically,
  see :mod:`repro.storage.artifact`) and live matching never observes a
  half-built index; :meth:`maybe_reload` makes that a cheap poll;
* it **applies deltas** — :meth:`maybe_reload` also watches the
  ``<artifact>.delta`` sidecar (:mod:`repro.serving.delta`): an
  incremental publish that ships only the changed entities is applied in
  memory instead of cold-loading a full file, counted in
  ``stats.deltas_applied``; a sidecar that does not chain onto the
  current state is skipped (``stats.deltas_skipped``) and serving
  continues on the artifact it has.  The service never writes a file:
  after a delta each process serves a private in-memory copy until the
  next full publish maps a shared file again;
* it **resolves** — :meth:`resolve` follows a match with a
  :class:`~repro.matching.resolver.MatchResolver` ranking over the
  artifact's embedded click priors, so ambiguous queries come back as an
  ordered entity list instead of an unordered tied set;
* it is **thread-safe** — one lock guards the result cache and the
  counters, so the threaded daemon (:mod:`repro.server`) can drive a
  single service from many request threads, including through a
  mid-traffic :meth:`reload`.

The service returns exactly what the underlying matcher returns, cache hit
or miss, before and after a delta or a full republish:
``tests/oracle`` holds :meth:`MatchService.match` and
:meth:`MatchService.resolve` to the brute-force reference field for field.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

from repro.matching.matcher import EntityMatch, QueryMatcher
from repro.matching.resolver import MatchResolver, RankedEntity
from repro.serving.artifact import SynonymArtifact
from repro.storage.artifact import ArtifactManifest
from repro.text.normalize import normalize

__all__ = ["ServiceSnapshot", "ServiceStats", "MatchService"]


@dataclass(frozen=True)
class ServiceStats:
    """Counters of a :class:`MatchService` since construction."""

    queries: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    reloads: int = 0
    deltas_applied: int = 0
    deltas_skipped: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of queries answered from the result cache (0 when idle)."""
        if not self.queries:
            return 0.0
        return self.cache_hits / self.queries


@dataclass(frozen=True)
class ServiceSnapshot:
    """One internally consistent view of a :class:`MatchService`.

    Everything here was captured from a *single* serving state (plus one
    atomic counter read), so consumers that report several fields together
    — the daemon's ``/stats`` and ``/healthz`` payloads — can never pair
    one artifact's ``version`` with another's ``has_priors`` across a
    concurrent hot swap, which is exactly what happened when those fields
    were read through separate property calls.
    """

    artifact: SynonymArtifact
    stats: ServiceStats
    artifact_path: Path | None

    @property
    def manifest(self) -> ArtifactManifest:
        """Manifest of the captured artifact (same capture, by construction)."""
        return self.artifact.manifest


def _file_stamp(path: Path) -> tuple[int, int, int] | None:
    """``(mtime_ns, size, inode)`` of *path*, or None when it is missing.

    The inode is what makes the stamp robust: atomic republication always
    creates a new inode, even when size and a coarse-granularity mtime
    happen to collide.
    """
    try:
        stat = path.stat()
    except FileNotFoundError:
        return None
    return (stat.st_mtime_ns, stat.st_size, stat.st_ino)


class _LRUCache:
    """A small bounded LRU map; ``maxsize=0`` disables caching entirely."""

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._data: OrderedDict[str, EntityMatch] = OrderedDict()

    def get(self, key: str) -> EntityMatch | None:
        if self.maxsize <= 0:
            return None
        found = self._data.get(key)
        if found is not None:
            self._data.move_to_end(key)
        return found

    def put(self, key: str, value: EntityMatch) -> None:
        if self.maxsize <= 0:
            return
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def __len__(self) -> int:
        return len(self._data)


@dataclass(frozen=True)
class _ServingState:
    """Everything :meth:`MatchService.match` needs, swapped as one unit."""

    artifact: SynonymArtifact
    matcher: QueryMatcher
    resolver: MatchResolver
    cache: _LRUCache
    # _file_stamp of the loaded file.
    source_stamp: tuple[int, int, int] | None
    # Stamp of the delta sidecar last applied (or inspected and skipped),
    # so an unchanged sidecar is never re-read on the poll path.
    delta_stamp: tuple[int, int, int] | None = None


class MatchService:
    """Serves entity matches from a compiled synonym artifact.

    Parameters
    ----------
    artifact:
        Path to a compiled artifact file, or an already-loaded
        :class:`SynonymArtifact` (then :meth:`reload` requires a path).
        Every file read on its behalf — the artifact or a delta sidecar —
        is mapped read-only and has its content hash checked.
    cache_size:
        Maximum number of distinct normalized queries memoized (0 disables
        the cache).
    enable_fuzzy:
        Forwarded to :class:`QueryMatcher` (which owns the fuzzy thresholds).

    Workers in separate processes serving the same published file share
    its physical pages.  A delta sidecar is applied in memory, so from then
    until the next full publish each process serves a private copy.
    """

    def __init__(
        self,
        artifact: str | Path | SynonymArtifact,
        *,
        cache_size: int = 4096,
        enable_fuzzy: bool = True,
        # Accepted and ignored: every file is mapped, and the frozen harness
        # (benchmarks/perf/layers.py) still passes it; ROADMAP open item 1
        # frees the spelling.
        mmap: bool = False,
    ) -> None:
        if cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {cache_size}")
        self.cache_size = cache_size
        self.enable_fuzzy = enable_fuzzy
        self._path: Path | None = None
        self._queries = 0
        self._cache_hits = 0
        self._reloads = 0
        self._deltas_applied = 0
        self._deltas_skipped = 0
        # _lock serializes the cheap shared-state touches (cache get/put,
        # counter bumps); matching itself runs outside it.  _reload_lock
        # serializes state builds so concurrent reload()/maybe_reload()
        # calls cannot race each other into duplicate swaps.
        self._lock = threading.Lock()
        self._reload_lock = threading.Lock()
        if isinstance(artifact, SynonymArtifact):
            self._state = self._build_state(artifact, stamp=None)
        else:
            self._path = Path(artifact)
            self._state = self._load_state(self._path)
            # A pending sidecar from an incremental publish is part of the
            # current logical state: apply it before serving (a restart
            # otherwise answers from the stale pre-delta base).
            with self._reload_lock:
                self._apply_pending_delta_locked()

    # ------------------------------------------------------------------ #
    # Loading / hot-swap
    # ------------------------------------------------------------------ #

    def _build_state(
        self, artifact: SynonymArtifact, *, stamp: tuple[int, int, int] | None
    ) -> _ServingState:
        return _ServingState(
            artifact=artifact,
            matcher=QueryMatcher(artifact, enable_fuzzy=self.enable_fuzzy),
            resolver=MatchResolver.from_artifact(artifact),
            cache=_LRUCache(self.cache_size),
            source_stamp=stamp,
        )

    def _load_state(self, path: Path) -> _ServingState:
        # Stamp before loading: a file replaced in between is reloaded by
        # the next poll instead of being missed.
        stamp = _file_stamp(path)
        return self._build_state(SynonymArtifact.load(path), stamp=stamp)

    def reload(self, path: str | Path | None = None) -> ArtifactManifest:
        """Load a (possibly new) artifact and atomically swap it in.

        The new artifact, matcher and an empty result cache are fully built
        before the single attribute assignment that makes them live, so
        concurrent :meth:`match` calls see either the old state or the new
        one in full.  Returns the manifest now being served.
        """
        with self._reload_lock:
            return self._reload_locked(path)

    def _reload_locked(self, path: str | Path | None = None) -> ArtifactManifest:
        if path is not None:
            self._path = Path(path)
        if self._path is None:
            raise ValueError("this service was built from a loaded artifact; pass a path")
        state = self._load_state(self._path)
        self._state = state
        with self._lock:
            self._reloads += 1
        return state.artifact.manifest

    @property
    def delta_path(self) -> Path | None:
        """The sidecar path :meth:`maybe_reload` watches (``<path>.delta``)."""
        if self._path is None:
            return None
        from repro.serving.delta import delta_path_for

        return delta_path_for(self._path)

    def _delta_stamp(self) -> tuple[int, int, int] | None:
        """Stat stamp of the delta sidecar, or None when it is missing."""
        sidecar = self.delta_path
        return None if sidecar is None else _file_stamp(sidecar)

    def _apply_pending_delta_locked(self) -> bool:
        """Apply the sidecar to the current state if it is new and chains.

        Must run under ``_reload_lock``.  A sidecar that fails to load or
        does not chain onto the current artifact is remembered by stamp
        (``deltas_skipped``) so the poll path does not re-read it every
        tick; serving continues on the artifact already loaded.

        The merged artifact lives in memory only: nothing is written, and
        the sidecar stays on disk so a restart applies it again.
        """
        from repro.serving.delta import DictionaryDelta
        from repro.storage.artifact import ArtifactError

        stamp = self._delta_stamp()
        state = self._state
        if stamp is None or state.delta_stamp == stamp:
            return False
        try:
            artifact = state.artifact.apply_delta(DictionaryDelta.load(self.delta_path))
        except FileNotFoundError:
            # Unlinked between the stat and the read (a concurrent full
            # publish removes its stale sidecar): nothing to apply, and
            # nothing to remember — the next poll sees no sidecar at all.
            return False
        except ArtifactError:
            self._state = replace(state, delta_stamp=stamp)
            with self._lock:
                self._deltas_skipped += 1
            return False
        new_state = replace(
            self._build_state(artifact, stamp=state.source_stamp), delta_stamp=stamp
        )
        self._state = new_state
        with self._lock:
            self._deltas_applied += 1
        return True

    def maybe_reload(self) -> bool:
        """Pick up a republished artifact or delta sidecar, if any.

        Cheap enough to call before every batch (two ``stat`` calls);
        returns True when a swap happened.  Used by the daemon's background
        watcher thread.  Preference order: a
        new **delta sidecar** that chains onto the current state is applied
        in memory (no full cold load); a changed **full artifact file** is
        reloaded from disk, after which a pending sidecar is re-evaluated
        against the fresh base (the restart-with-journal case).  Stamps are
        re-checked under the reload lock, so concurrent callers straddling
        one republish perform exactly one swap — the losers observe the
        fresh state and return False instead of loading a second time.
        """
        path = self._path
        if path is None:
            return False
        state = self._state
        full_stamp = _file_stamp(path)
        delta_stamp = self._delta_stamp()
        full_changed = full_stamp is not None and state.source_stamp != full_stamp
        delta_changed = delta_stamp is not None and state.delta_stamp != delta_stamp
        if not full_changed and not delta_changed:
            return False
        with self._reload_lock:
            swapped = False
            full_stamp = _file_stamp(path)
            if full_stamp is not None and self._state.source_stamp != full_stamp:
                self._reload_locked()
                swapped = True
            swapped = self._apply_pending_delta_locked() or swapped
        return swapped

    # ------------------------------------------------------------------ #
    # Matching
    # ------------------------------------------------------------------ #

    def match(self, query: str) -> EntityMatch:
        """Match one query (identical to the underlying matcher's result)."""
        return self._match_with_state(self._state, query)

    def _match_with_state(self, state: _ServingState, query: str) -> EntityMatch:
        normalized = normalize(query)
        with self._lock:
            self._queries += 1
            cached = state.cache.get(normalized)
            if cached is not None:
                self._cache_hits += 1
        if cached is None:
            # Cache under the normalized key: every raw spelling that
            # normalizes to the same string shares one computed result.
            # Matching runs outside the lock — two threads may both miss
            # and compute the same (deterministic) result, which is benign
            # and far cheaper than serializing segmentation.
            cached = state.matcher.match(normalized)
            with self._lock:
                state.cache.put(normalized, cached)
        if cached.query == query:
            return cached
        return replace(cached, query=query)

    def match_many(self, queries: Iterable[str]) -> list[EntityMatch]:
        """Match a batch of queries (order preserved)."""
        return [self.match(query) for query in queries]

    def resolve(self, query: str) -> tuple[EntityMatch, list[RankedEntity]]:
        """Match one query and rank its (possibly tied) entities.

        The ranking comes from the state's resolver over the artifact's
        embedded click priors (uniform when it was compiled without a
        priors block); match and ranking are computed against one state, so
        a concurrent hot swap cannot pair a new match with an old ranking.
        """
        state = self._state
        match = self._match_with_state(state, query)
        return match, state.resolver.rank(match)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> bool:
        """Release the current artifact's file mapping, if it has one.

        End-of-life teardown only (daemon shutdown, tests, CLI exit) —
        never called on hot swap, where in-flight requests may still hold
        views into the old state; a swapped-out state is simply dropped and
        refcounting unmaps it when the last reader finishes.  Returns True
        when the map went away now (always True for an in-memory artifact).
        """
        return self._state.artifact.close()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def artifact(self) -> SynonymArtifact:
        """The artifact currently being served."""
        return self._state.artifact

    @property
    def manifest(self) -> ArtifactManifest:
        """Manifest of the artifact currently being served."""
        return self._state.artifact.manifest

    @property
    def artifact_path(self) -> Path | None:
        """The file this service (re)loads from, when path-backed."""
        return self._path

    @property
    def stats(self) -> ServiceStats:
        """Query/cache/reload counters since construction (one atomic read)."""
        with self._lock:
            return ServiceStats(
                queries=self._queries,
                cache_hits=self._cache_hits,
                cache_misses=self._queries - self._cache_hits,
                reloads=self._reloads,
                deltas_applied=self._deltas_applied,
                deltas_skipped=self._deltas_skipped,
            )

    def snapshot(self) -> ServiceSnapshot:
        """Capture artifact + manifest + counters as one consistent view.

        Reads the serving state reference exactly once, so the returned
        snapshot describes a single artifact even while :meth:`reload` /
        :meth:`maybe_reload` swap states concurrently.  Payload builders
        that report multiple artifact fields together must go through this
        instead of the individual properties.
        """
        state = self._state
        return ServiceSnapshot(
            artifact=state.artifact, stats=self.stats, artifact_path=self._path
        )
