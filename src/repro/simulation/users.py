"""Simulated searcher population and click model.

This module is the stand-in for the five months of Bing user behaviour the
paper mines.  It has two parts:

* :class:`QueryPopulation` — the distribution of query strings users issue,
  derived from the ground-truth alias table: true synonyms dominate, but
  users also type canonical names (rarely), hypernyms (franchise / brand
  names), aspect queries ("<alias> trailer", "<alias> price"), related
  queries and outright noise.  Each query carries a distribution over the
  entity (if any) the user actually has in mind.

* :class:`ClickSimulator` — given a search engine and the population,
  simulates sessions: the user issues a query, examines the top-k results
  with position bias, and clicks results that look relevant to the intent.
  Clicks are aggregated into Click Data ``L``.

The structural properties the miner depends on all emerge from this model
rather than being wired in directly: synonym queries concentrate clicks on
the intended entity's pages (high IPC, high ICR), hypernym queries spread
clicks over many entities (low ICR), aspect queries concentrate on one or
two pages (low IPC), and noise queries land outside the surrogate sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence
import zlib

import numpy as np

from repro.clicklog.log import ClickLog
from repro.clicklog.records import ClickRecord
from repro.search.documents import WebPage
from repro.search.engine import SearchEngine, SearchResult
from repro.simulation.aliases import AliasKind, AliasTable
from repro.simulation.catalog import EntityCatalog
from repro.text.normalize import normalize

__all__ = ["UserModelConfig", "QuerySpec", "QueryPopulation", "ClickSimulator"]

_MOVIE_ASPECTS = ["trailer", "review", "cast", "showtimes", "soundtrack"]
_CAMERA_ASPECTS = ["price", "review", "manual", "sample photos", "vs"]

_NOISE_QUERIES = [
    "weather forecast", "cheap flights", "news headlines", "pizza near me",
    "currency converter", "traffic update", "email login", "translate english",
]

RESULTS_PER_QUERY = 10
"""How many results a simulated user is shown per query."""

POSITION_BIAS: tuple[float, ...] = tuple(0.72 ** position for position in range(RESULTS_PER_QUERY))
"""Probability of examining the result at each position (1-based order)."""

# Click probability given examination, by relation of the page to the
# user's intent (the two relations no caller varies).
CLICK_PROB_INTENDED = 0.78
CLICK_PROB_SAME_GROUP = 0.22

# Relative weight of the query kinds no caller varies.
_KIND_WEIGHT = {
    AliasKind.SYNONYM: 6.0,
    AliasKind.HYPERNYM: 2.5,
    AliasKind.HYPONYM: 1.0,
    AliasKind.RELATED: 0.8,
    AliasKind.AMBIGUOUS: 1.0,
}
_ASPECT_WEIGHT = 1.8


@dataclass(frozen=True)
class UserModelConfig:
    """Behavioural parameters of the simulated searcher population.

    The defaults were chosen so that the qualitative shapes of the paper's
    figures emerge (see EXPERIMENTS.md); they are not fitted to any
    proprietary data.  The fields are the values some caller varies:
    ``session_count`` and ``seed`` (every world and month), the cameras
    preset's ``canonical_weight`` and the noise ablation's three noise
    levels.
    """

    session_count: int = 60_000
    click_prob_unrelated_entity: float = 0.03
    click_prob_generic_page: float = 0.08
    canonical_weight: float = 30.0
    noise_weight: float = 12.0
    seed: int = 97

    def __post_init__(self) -> None:
        if self.session_count <= 0:
            raise ValueError("session_count must be positive")
        for name in ("click_prob_unrelated_entity", "click_prob_generic_page"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class QuerySpec:
    """One query string in the population.

    ``intents`` maps entity ids to the relative probability that a user
    typing this query has that entity in mind; an empty tuple means the
    query is navigational noise with no catalog intent.
    """

    query: str
    kind: str
    weight: float
    intents: tuple[tuple[str, float], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")


class QueryPopulation:
    """The weighted set of queries the simulated users draw from."""

    def __init__(self, specs: Iterable[QuerySpec]) -> None:
        merged: dict[tuple[str, str], QuerySpec] = {}
        for spec in specs:
            key = (spec.query, spec.kind)
            existing = merged.get(key)
            if existing is None:
                merged[key] = spec
            else:
                merged[key] = QuerySpec(
                    query=spec.query,
                    kind=spec.kind,
                    weight=existing.weight + spec.weight,
                    intents=existing.intents + spec.intents,
                )
        self._specs = list(merged.values())

    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self) -> Iterator[QuerySpec]:
        return iter(self._specs)

    @property
    def specs(self) -> list[QuerySpec]:
        return list(self._specs)

    # ------------------------------------------------------------------ #
    # Construction from the ground truth
    # ------------------------------------------------------------------ #

    @classmethod
    def from_alias_table(
        cls,
        catalog: EntityCatalog,
        alias_table: AliasTable,
        config: UserModelConfig | None = None,
    ) -> "QueryPopulation":
        """Build the population the paper's users would generate."""
        config = config or UserModelConfig()
        aspects = _MOVIE_ASPECTS if catalog.domain == "movie" else _CAMERA_ASPECTS
        specs: list[QuerySpec] = []

        for entity in catalog:
            popularity = entity.popularity
            specs.append(
                QuerySpec(
                    query=entity.normalized_name,
                    kind="canonical",
                    weight=config.canonical_weight * popularity,
                    intents=((entity.entity_id, 1.0),),
                )
            )
            records = alias_table.records_for(entity.entity_id)
            for record in records:
                weight = _KIND_WEIGHT[record.kind] * record.weight * popularity
                specs.append(
                    QuerySpec(
                        query=record.alias,
                        kind=record.kind.value,
                        weight=weight,
                        intents=((entity.entity_id, popularity),),
                    )
                )
            # Aspect queries composed from the strongest synonym alias.
            synonyms = sorted(
                (r for r in records if r.kind is AliasKind.SYNONYM),
                key=lambda r: -r.weight,
            )
            if synonyms:
                best_alias = synonyms[0].alias
                for aspect_index, aspect in enumerate(aspects):
                    specs.append(
                        QuerySpec(
                            query=normalize(f"{best_alias} {aspect}"),
                            kind="aspect",
                            weight=_ASPECT_WEIGHT
                            * popularity
                            / (aspect_index + 1.0),
                            intents=((entity.entity_id, 1.0),),
                        )
                    )

        for noise_query in _NOISE_QUERIES:
            specs.append(
                QuerySpec(
                    query=noise_query,
                    kind="noise",
                    weight=config.noise_weight,
                    intents=(),
                )
            )
        return cls(specs)


class ClickSimulator:
    """Simulates the searcher population against a search engine."""

    def __init__(
        self,
        engine: SearchEngine,
        catalog: EntityCatalog,
        config: UserModelConfig | None = None,
    ) -> None:
        self.engine = engine
        self.catalog = catalog
        self.config = config or UserModelConfig()
        self._result_cache: dict[str, list[SearchResult]] = {}
        self._group_cache: dict[str, str] = {}

    # ------------------------------------------------------------------ #
    # Relevance model
    # ------------------------------------------------------------------ #

    def _group_of(self, entity_id: str) -> str:
        """Franchise (movies) or brand+line (cameras) group of an entity."""
        cached = self._group_cache.get(entity_id)
        if cached is not None:
            return cached
        entity = self.catalog.get(entity_id)
        if entity is None:
            group = ""
        elif entity.domain == "movie":
            group = entity.attributes.get("franchise", "") or entity.entity_id
        else:
            group = (
                f"{entity.attributes.get('brand', '')} {entity.attributes.get('line', '')}".strip()
                or entity.entity_id
            )
        self._group_cache[entity_id] = group
        return group

    def _click_probability(self, page: WebPage, intent: str | None) -> float:
        """Probability of clicking *page* given examination and intent."""
        config = self.config
        if intent is None:
            # Navigational noise: only generic pages look relevant.
            return config.click_prob_generic_page if page.entity_id is None else config.click_prob_unrelated_entity
        if page.entity_id is None:
            return config.click_prob_generic_page
        if page.entity_id == intent:
            return CLICK_PROB_INTENDED
        if self._group_of(page.entity_id) == self._group_of(intent):
            return CLICK_PROB_SAME_GROUP
        return config.click_prob_unrelated_entity

    def _click_probability_vector(
        self,
        results: Sequence[SearchResult],
        intent: str | None,
        kind: str,
        query: str,
    ) -> list[float]:
        """Per-result click probability (position bias × relevance).

        Aspect queries ("<alias> trailer") and hyponym queries ("<title>
        dvd release") are *focused*: the user is after one specific page of
        the entity, so only one of the entity's pages (chosen
        deterministically per query string) attracts the full click
        probability and the rest look like near-misses.  This is what keeps
        their Intersecting Page Count low, the property Figure 2's IPC
        threshold exploits.
        """
        focused = kind in ("aspect", "hyponym") and intent is not None
        preferred_index: int | None = None
        if focused:
            intent_positions = [
                index
                for index, result in enumerate(results)
                if self.engine.corpus[result.url].entity_id == intent
            ]
            if intent_positions:
                digest = zlib.crc32(query.encode("utf-8"))
                preferred_index = intent_positions[digest % len(intent_positions)]

        probabilities: list[float] = []
        for index, result in enumerate(results):
            page = self.engine.corpus[result.url]
            if focused and page.entity_id == intent:
                relevance = (
                    CLICK_PROB_INTENDED
                    if index == preferred_index
                    else self.config.click_prob_unrelated_entity
                )
            else:
                relevance = self._click_probability(page, intent)
            probabilities.append(POSITION_BIAS[result.rank - 1] * relevance)
        return probabilities

    def _results_for(self, query: str) -> list[SearchResult]:
        cached = self._result_cache.get(query)
        if cached is None:
            cached = self.engine.search(query, k=RESULTS_PER_QUERY)
            self._result_cache[query] = cached
        return cached

    # ------------------------------------------------------------------ #
    # Batch simulation
    # ------------------------------------------------------------------ #

    def simulate_click_log(self, population: QueryPopulation) -> ClickLog:
        """Simulate ``config.session_count`` sessions and aggregate clicks.

        Session counts per query are drawn from a multinomial over the
        population weights; clicks per (query, intent, result) are drawn
        binomially from the position-bias × relevance probability.  The
        result is Click Data ``L``.
        """
        rng = np.random.default_rng(self.config.seed)
        specs = population.specs
        if not specs:
            return ClickLog()
        weights = np.array([spec.weight for spec in specs], dtype=float)
        probabilities = weights / weights.sum()
        sessions_per_spec = rng.multinomial(self.config.session_count, probabilities)

        click_log = ClickLog()
        for spec, sessions in zip(specs, sessions_per_spec):
            if sessions == 0:
                continue
            results = self._results_for(spec.query)
            if not results:
                continue
            intent_ids, intent_counts = self._split_sessions_by_intent(spec, int(sessions), rng)
            for intent, count in zip(intent_ids, intent_counts):
                if count == 0:
                    continue
                probs = np.array(
                    self._click_probability_vector(results, intent, spec.kind, spec.query)
                )
                clicks = rng.binomial(int(count), probs)
                for result, click_count in zip(results, clicks):
                    if click_count > 0:
                        click_log.add(ClickRecord(spec.query, result.url, int(click_count)))
        return click_log

    def _split_sessions_by_intent(
        self, spec: QuerySpec, sessions: int, rng: np.random.Generator
    ) -> tuple[list[str | None], np.ndarray]:
        """Distribute a spec's sessions over its intent distribution."""
        if not spec.intents:
            return [None], np.array([sessions])
        intent_ids = [entity_id for entity_id, _weight in spec.intents]
        intent_weights = np.array([weight for _entity_id, weight in spec.intents], dtype=float)
        intent_probs = intent_weights / intent_weights.sum()
        counts = rng.multinomial(sessions, intent_probs)
        return intent_ids, counts
