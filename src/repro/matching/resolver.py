"""Disambiguation of ambiguous matches.

A dictionary string can legitimately refer to several entities — "lyra
quinn" matches every movie of the franchise, a bare model number may be
shared by two cameras.  When the matcher returns more than one entity id,
an application still has to pick what to show first.  The resolver ranks
the tied entities with the two signals that are already available offline:

* **click-volume prior** — how much query traffic each entity's known
  strings attract (popular entities win ties, which is also what a search
  engine's behaviour implies).  The prior can come from a live
  :class:`~repro.clicklog.log.ClickLog` *or* from a precomputed mapping —
  most usefully the ``priors`` block a compiled
  :class:`~repro.serving.artifact.SynonymArtifact` publishes, which makes
  ranked resolution possible in a server that never sees the log; and
* **context overlap** — tokens of the query *outside* the matched span
  that also occur in one entity's canonical string or synonyms
  ("lyra quinn crystal skull" disambiguates to the installment whose
  subtitle mentions the crystal skull).

The resolver never overrides an unambiguous match; it only orders ties.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.clicklog.log import ClickLog
from repro.matching.index import DictionaryIndex
from repro.matching.matcher import EntityMatch
from repro.text.stopwords import remove_stopwords
from repro.text.tokenize import tokenize

__all__ = ["RankedEntity", "MatchResolver"]


@dataclass(frozen=True)
class RankedEntity:
    """One entity of an ambiguous match with its ranking evidence."""

    entity_id: str
    score: float
    prior: float
    context_overlap: float


class MatchResolver:
    """Orders the entities of an ambiguous :class:`EntityMatch`.

    Exactly one prior source may be given: a live *click_log* (priors are
    summed per entity on demand) or a precomputed *priors* mapping (entity
    id → click volume, e.g. from
    :meth:`~repro.serving.artifact.SynonymArtifact.priors`).  With neither,
    every entity gets the uniform prior 1.0 and ranking degrades to context
    overlap alone.
    """

    def __init__(
        self,
        dictionary: DictionaryIndex,
        *,
        click_log: ClickLog | None = None,
        priors: Mapping[str, float] | None = None,
        context_weight: float = 2.0,
    ) -> None:
        if context_weight < 0:
            raise ValueError(f"context_weight must be >= 0, got {context_weight}")
        if click_log is not None and priors is not None:
            raise ValueError("pass click_log or priors, not both")
        self.dictionary = dictionary
        self.click_log = click_log
        self.priors = dict(priors) if priors is not None else None
        self.context_weight = context_weight
        self._prior_cache: dict[str, float] = {}

    @classmethod
    def from_artifact(cls, artifact) -> "MatchResolver":
        """Build a resolver over a compiled artifact's embedded priors.

        *artifact* is a :class:`~repro.serving.artifact.SynonymArtifact`;
        when it has no priors block (layout 1) the resolver falls back to
        uniform priors, so old artifacts keep resolving — just without the
        popularity signal.
        """
        return cls(artifact, priors=artifact.priors())

    # ------------------------------------------------------------------ #
    # Signals
    # ------------------------------------------------------------------ #

    def prior(self, entity_id: str) -> float:
        """Click-volume prior of an entity (1.0 when no prior source is given).

        The prior is the total click volume of every dictionary string that
        refers to the entity, so it reflects how much user attention the
        entity receives rather than how many strings it happens to have.
        A precomputed *priors* mapping returns the same number a live log
        would, because the compiler sums the identical quantity; an entity
        absent from the mapping scores 0.0 — exactly what summing over an
        unknown entity's (empty) string set yields.
        """
        cached = self._prior_cache.get(entity_id)
        if cached is not None:
            return cached
        if self.priors is not None:
            prior = float(self.priors.get(entity_id, 0.0))
        elif self.click_log is None:
            prior = 1.0
        else:
            prior = float(
                sum(
                    self.click_log.total_clicks(text)
                    for text in self.dictionary.strings_for_entity(entity_id)
                )
            )
        self._prior_cache[entity_id] = prior
        return prior

    def context_overlap(self, entity_id: str, remainder: str) -> float:
        """Fraction of leftover query tokens explained by the entity's strings."""
        remainder_tokens = set(remove_stopwords(tokenize(remainder)))
        if not remainder_tokens:
            return 0.0
        entity_tokens: set[str] = set()
        for text in self.dictionary.strings_for_entity(entity_id):
            entity_tokens.update(tokenize(text, normalized=True))
        if not entity_tokens:
            return 0.0
        return len(remainder_tokens & entity_tokens) / len(remainder_tokens)

    # ------------------------------------------------------------------ #
    # Resolution
    # ------------------------------------------------------------------ #

    def rank(self, match: EntityMatch) -> list[RankedEntity]:
        """Rank the entities of *match*, best first.

        The score combines the normalised click prior with the context
        overlap; ties break deterministically on entity id.
        """
        entity_ids = sorted(match.entity_ids)
        if not entity_ids:
            return []
        priors = {entity_id: self.prior(entity_id) for entity_id in entity_ids}
        overlaps = {
            entity_id: self.context_overlap(entity_id, match.remainder)
            for entity_id in entity_ids
        }
        max_prior = max(priors.values()) or 1.0
        ranked = [
            RankedEntity(
                entity_id=entity_id,
                prior=priors[entity_id],
                context_overlap=overlaps[entity_id],
                score=(priors[entity_id] / max_prior)
                + self.context_weight * overlaps[entity_id],
            )
            for entity_id in entity_ids
        ]
        ranked.sort(key=lambda item: (-item.score, item.entity_id))
        return ranked

    def resolve(self, match: EntityMatch) -> str | None:
        """Return the single best entity id for *match*, or ``None``."""
        ranked = self.rank(match)
        return ranked[0].entity_id if ranked else None
