"""Result types of the synonym miner."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["SynonymCandidate", "EntitySynonyms", "MiningResult"]


@dataclass(frozen=True)
class SynonymCandidate:
    """One scored candidate ``w'`` for an input string ``u``.

    Attributes
    ----------
    query:
        The candidate query string (normalized).
    ipc:
        Intersecting Page Count, ``|G_L(w',P) ∩ G_A(u,P)|`` (Eq. 3).
    icr:
        Intersecting Click Ratio (Eq. 4), in [0, 1].
    clicks:
        Total click volume of the candidate query in the click log; used as
        the frequency weight in weighted precision and as a tie-breaker
        when ranking synonyms.
    """

    query: str
    ipc: int
    icr: float
    clicks: int

    def __post_init__(self) -> None:
        if self.ipc < 0:
            raise ValueError(f"ipc must be >= 0, got {self.ipc}")
        if not 0.0 <= self.icr <= 1.0:
            raise ValueError(f"icr must be in [0, 1], got {self.icr}")
        if self.clicks < 0:
            raise ValueError(f"clicks must be >= 0, got {self.clicks}")

    def passes(self, *, ipc_threshold: int, icr_threshold: float) -> bool:
        """Whether the candidate clears both thresholds (β and γ)."""
        return self.ipc >= ipc_threshold and self.icr >= icr_threshold


@dataclass
class EntitySynonyms:
    """The mining outcome for one input string ``u``."""

    canonical: str
    surrogates: tuple[str, ...]
    candidates: list[SynonymCandidate] = field(default_factory=list)
    selected: list[SynonymCandidate] = field(default_factory=list)

    @property
    def synonyms(self) -> list[str]:
        """Selected synonym strings, highest click volume first."""
        return [candidate.query for candidate in self.selected]

    @property
    def has_synonyms(self) -> bool:
        """True when at least one synonym was selected (a Table-I "hit")."""
        return bool(self.selected)

    def candidate(self, query: str) -> SynonymCandidate | None:
        """Look up a scored candidate by query string."""
        for candidate in self.candidates:
            if candidate.query == query:
                return candidate
        return None


@dataclass
class MiningResult:
    """The mining outcome for a whole input set U."""

    per_entity: dict[str, EntitySynonyms] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.per_entity)

    def __iter__(self) -> Iterator[EntitySynonyms]:
        return iter(self.per_entity.values())

    def __getitem__(self, canonical: str) -> EntitySynonyms:
        return self.per_entity[canonical]

    def __contains__(self, canonical: str) -> bool:
        return canonical in self.per_entity

    def add(self, entry: EntitySynonyms) -> None:
        """Add the result for one canonical string."""
        self.per_entity[entry.canonical] = entry

    # ------------------------------------------------------------------ #
    # Aggregates used by Table I
    # ------------------------------------------------------------------ #

    @property
    def hit_count(self) -> int:
        """Number of input strings with at least one selected synonym."""
        return sum(1 for entry in self.per_entity.values() if entry.has_synonyms)

    @property
    def synonym_count(self) -> int:
        """Total number of selected synonyms over all input strings."""
        return sum(len(entry.selected) for entry in self.per_entity.values())

    def hit_ratio(self) -> float:
        """Fraction of input strings producing at least one synonym."""
        if not self.per_entity:
            return 0.0
        return self.hit_count / len(self.per_entity)

    def expansion_ratio(self) -> float:
        """(synonyms + original entries) / original entries, as in Table I."""
        originals = len(self.per_entity)
        if originals == 0:
            return 0.0
        return (self.synonym_count + originals) / originals

    def as_dictionary(self) -> dict[str, list[str]]:
        """Plain {canonical: [synonyms...]} mapping for downstream users."""
        return {entry.canonical: entry.synonyms for entry in self.per_entity.values()}
