"""Simulated Wikipedia redirect and disambiguation data.

Table I of the paper compares the mined synonyms against synonyms harvested
from Wikipedia redirect/disambiguation pages.  The paper's observation is a
*coverage* effect: Wikipedia works well for popular entities (96 of 100
movies produce at least one synonym) and poorly for tail entities (101 of
882 cameras).  This module models exactly that property: each entity is
covered with a probability that rises with its popularity percentile, and a
covered entity contributes a few of its true aliases as redirects.

The baseline in :mod:`repro.baselines.wikipedia` then consumes this table
the same way the paper consumes the real redirect dump.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.simulation.aliases import AliasTable
from repro.simulation.catalog import EntityCatalog

__all__ = ["WikipediaConfig", "WikipediaEntry", "SimulatedWikipedia"]


@dataclass(frozen=True)
class WikipediaConfig:
    """Coverage model of the simulated Wikipedia.

    ``head_coverage`` is the probability that the most popular entity of a
    catalog has an article with redirects; ``tail_coverage`` the probability
    for the least popular one.  Probabilities for the entities in between
    are interpolated linearly in popularity percentile, which produces the
    strong head bias of the real encyclopedia.
    """

    head_coverage: float = 0.98
    tail_coverage: float = 0.9
    popularity_exponent: float = 1.0
    min_redirects: int = 1
    max_redirects: int = 4

    def __post_init__(self) -> None:
        for name, value in (("head_coverage", self.head_coverage), ("tail_coverage", self.tail_coverage)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.popularity_exponent <= 0:
            raise ValueError("popularity_exponent must be positive")
        if self.min_redirects < 0:
            raise ValueError("min_redirects must be >= 0")
        if self.max_redirects < self.min_redirects:
            raise ValueError("max_redirects must be >= min_redirects")


WIKIPEDIA_SEED = 2001
"""Seed of the coverage and redirect sampling."""

MOVIE_WIKIPEDIA_CONFIG = WikipediaConfig(head_coverage=1.0, tail_coverage=0.9, min_redirects=1, max_redirects=4)
"""Coverage preset matching the paper's movies row (96% hit ratio)."""

CAMERA_WIKIPEDIA_CONFIG = WikipediaConfig(
    head_coverage=0.85, tail_coverage=0.01, popularity_exponent=6.0, min_redirects=2, max_redirects=9
)
"""Coverage preset matching the paper's cameras row (11.5% hit ratio).

The steep ``popularity_exponent`` concentrates coverage on the few popular
models; integrated over the catalog it yields roughly one article per nine
cameras, the proportion the paper observed.
"""


@dataclass(frozen=True)
class WikipediaEntry:
    """One simulated article: canonical title plus its redirect strings."""

    entity_id: str
    title: str
    redirects: tuple[str, ...]


class SimulatedWikipedia:
    """The redirect/disambiguation table of the simulated encyclopedia."""

    def __init__(self, entries: list[WikipediaEntry]) -> None:
        self._entries = {entry.entity_id: entry for entry in entries}

    @classmethod
    def build(cls, catalog: EntityCatalog, alias_table: AliasTable) -> "SimulatedWikipedia":
        """Sample the catalog's domain preset over *catalog* and return the table."""
        config = MOVIE_WIKIPEDIA_CONFIG if catalog.domain == "movie" else CAMERA_WIKIPEDIA_CONFIG
        rng = random.Random(WIKIPEDIA_SEED)
        ranked = sorted(catalog, key=lambda entity: -entity.popularity)
        total = max(len(ranked) - 1, 1)
        entries: list[WikipediaEntry] = []
        for rank, entity in enumerate(ranked):
            percentile = 1.0 - rank / total if total else 1.0
            coverage = (
                config.tail_coverage
                + (config.head_coverage - config.tail_coverage)
                * percentile ** config.popularity_exponent
            )
            if rng.random() >= coverage:
                continue
            synonyms = sorted(alias_table.synonyms_of(entity.entity_id))
            if not synonyms:
                continue
            redirect_count = rng.randint(config.min_redirects, config.max_redirects)
            redirect_count = min(redirect_count, len(synonyms))
            redirects = tuple(rng.sample(synonyms, redirect_count))
            entries.append(
                WikipediaEntry(
                    entity_id=entity.entity_id,
                    title=entity.canonical_name,
                    redirects=redirects,
                )
            )
        return cls(entries)

    # ------------------------------------------------------------------ #
    # Lookup API (what the baseline consumes)
    # ------------------------------------------------------------------ #

    def redirects_for(self, entity_id: str) -> list[str]:
        """Redirect strings of the entity's article (empty when uncovered)."""
        entry = self._entries.get(entity_id)
        return list(entry.redirects) if entry else []

    @property
    def article_count(self) -> int:
        """Number of covered entities."""
        return len(self._entries)
