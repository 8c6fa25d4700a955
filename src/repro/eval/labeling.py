"""Ground-truth labelling: the oracle ``F`` used to judge mined synonyms.

In the paper, precision is measured by human judges deciding whether each
produced string is a true synonym of the entity.  The simulation owns the
ground truth (the alias table that drove user behaviour), so the judgement
here is exact: a produced string is a true synonym if and only if the alias
table records it as ``SYNONYM`` for the entity behind the canonical string.
"""

from __future__ import annotations

from repro.simulation.aliases import AliasKind, AliasTable
from repro.simulation.catalog import EntityCatalog
from repro.text.normalize import normalize

__all__ = ["GroundTruthOracle"]


class GroundTruthOracle:
    """Judges candidate synonyms against the simulation's ground truth."""

    def __init__(self, catalog: EntityCatalog, alias_table: AliasTable) -> None:
        self.catalog = catalog
        self.alias_table = alias_table
        self._entity_by_name = catalog.by_canonical_name()

    def entity_for(self, canonical: str) -> str | None:
        """Entity id behind a canonical string (normalized), or ``None``."""
        entity = self._entity_by_name.get(normalize(canonical))
        return entity.entity_id if entity is not None else None

    def relation(self, candidate: str, canonical: str) -> AliasKind | None:
        """Ground-truth relation of *candidate* to the entity of *canonical*.

        Returns ``None`` when the candidate string was never recorded for
        that entity (aspect queries, noise, other entities' aliases).
        """
        entity_id = self.entity_for(canonical)
        if entity_id is None:
            return None
        return self.alias_table.kind_of(candidate, entity_id)

    def is_true_synonym(self, candidate: str, canonical: str) -> bool:
        """True iff *candidate* is a recorded true synonym of *canonical*'s entity."""
        return self.relation(candidate, canonical) is AliasKind.SYNONYM
