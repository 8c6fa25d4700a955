"""Wikipedia redirect baseline (the "Wiki" rows of Table I).

The paper harvests synonyms from Wikipedia redirection and disambiguation
pages (e.g. the entry for "LOTR" redirects to "Lord of the Rings").  The
baseline here consumes the simulated encyclopedia of
:mod:`repro.simulation.wikipedia` exactly the same way: for an input value
``u`` it looks up the article of the corresponding entity and reports the
article's redirect strings as synonyms.

The method is manual-effort based and coverage-limited: tail entities have
no article, so they produce no synonyms no matter how the thresholds are
set — which is precisely the effect Table I demonstrates on cameras.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.types import EntitySynonyms, MiningResult, SynonymCandidate
from repro.simulation.catalog import EntityCatalog
from repro.simulation.wikipedia import SimulatedWikipedia
from repro.text.normalize import normalize

__all__ = ["WikipediaSynonymFinder"]


class WikipediaSynonymFinder:
    """Produces synonyms from (simulated) Wikipedia redirects."""

    def __init__(self, wikipedia: SimulatedWikipedia, catalog: EntityCatalog) -> None:
        self.wikipedia = wikipedia
        self._entity_by_name = catalog.by_canonical_name()

    def find_one(self, value: str) -> EntitySynonyms:
        """Return the redirect-derived synonyms of one canonical string."""
        canonical = normalize(value)
        entity = self._entity_by_name.get(canonical)
        redirects: list[str] = []
        if entity is not None:
            redirects = self.wikipedia.redirects_for(entity.entity_id)
        return EntitySynonyms(
            canonical=canonical,
            surrogates=(),
            selected=[
                SynonymCandidate(query=normalize(redirect), ipc=0, icr=0.0, clicks=0)
                for redirect in sorted(set(redirects))
            ],
        )

    def find(self, values: Iterable[str]) -> MiningResult:
        """Run the baseline over a whole input set."""
        result = MiningResult()
        for value in values:
            result.add(self.find_one(value))
        return result
