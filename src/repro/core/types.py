"""Result types of the synonym miner.

A :class:`SynonymCandidate` is one scored query.  The miner scores every
query that clicks a surrogate but selects about one in twelve, so it keeps
an entity's scored candidates as one :class:`ScoredCandidates` record of
four columns and builds a :class:`SynonymCandidate` only for a candidate
that is selected or read.  :class:`EntitySynonyms` always holds such a
record (empty for the baselines, which score nothing) beside the list of
selected candidates.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Iterator, Sequence, overload

__all__ = ["SynonymCandidate", "ScoredCandidates", "EntitySynonyms", "MiningResult"]


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


class ScoredCandidates(Sequence[SynonymCandidate]):
    """Every scored candidate of one entity, stored as four columns.

    Row *i* is the candidate ``SynonymCandidate(queries[i], ipc[i], icr[i],
    clicks[i])``; the miner writes the rows sorted by ``(clicks desc, query
    asc)``.  Indexing and iteration build each candidate on demand (so its
    ``__post_init__`` validates it), a slice is a list, and a record equals
    only a record with the same columns (compare ``list(record)`` with a
    list).
    Nothing modifies a record once it is built, so results may share one:
    :meth:`SynonymMiner.reselect` does.  It is a plain slotted class, not a
    frozen dataclass, because the miner builds one per entity and a frozen
    ``__init__`` costs about four times as much.
    """

    __slots__ = ("queries", "ipc", "icr", "clicks")

    def __init__(
        self, queries: tuple[str, ...], ipc: array[int], icr: array[float], clicks: array[int]
    ) -> None:
        self.queries = queries
        self.ipc = ipc
        self.icr = icr
        self.clicks = clicks

    def __repr__(self) -> str:
        return (
            f"ScoredCandidates(queries={self.queries!r}, ipc={self.ipc!r}, "
            f"icr={self.icr!r}, clicks={self.clicks!r})"
        )

    def __len__(self) -> int:
        return len(self.queries)

    @overload
    def __getitem__(self, index: int) -> SynonymCandidate: ...

    @overload
    def __getitem__(self, index: slice) -> list[SynonymCandidate]: ...

    def __getitem__(self, index: int | slice) -> SynonymCandidate | list[SynonymCandidate]:
        if isinstance(index, slice):
            columns = (self.queries[index], self.ipc[index], self.icr[index], self.clicks[index])
            return list(map(SynonymCandidate, *columns))
        return SynonymCandidate(
            self.queries[index], self.ipc[index], self.icr[index], self.clicks[index]
        )

    def __iter__(self) -> Iterator[SynonymCandidate]:
        return map(SynonymCandidate, self.queries, self.ipc, self.icr, self.clicks)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ScoredCandidates):
            return (
                self.queries == other.queries
                and self.ipc == other.ipc
                and self.icr == other.icr
                and self.clicks == other.clicks
            )
        return NotImplemented


@dataclass
class EntitySynonyms:
    """The mining outcome for one input string ``u``.

    *candidates* is every scored candidate, as a :class:`ScoredCandidates`
    record (empty by default: a baseline scores nothing).  *selected* is a
    list of built candidates.
    """

    canonical: str
    surrogates: tuple[str, ...]
    candidates: ScoredCandidates = field(
        default_factory=lambda: ScoredCandidates((), array("q"), array("d"), array("q"))
    )
    selected: list[SynonymCandidate] = field(default_factory=list)

    @property
    def synonyms(self) -> list[str]:
        """Selected synonym strings, highest click volume first."""
        return [candidate.query for candidate in self.selected]

    @property
    def has_synonyms(self) -> bool:
        """True when at least one synonym was selected (a Table-I "hit")."""
        return bool(self.selected)


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
    # Counts behind Table I (QualityRow holds the ratios)
    # ------------------------------------------------------------------ #

    @property
    def hit_count(self) -> int:
        """Number of input strings with at least one selected synonym."""
        return sum(1 for entry in self.per_entity.values() if entry.has_synonyms)

    @property
    def synonym_count(self) -> int:
        """Total number of selected synonyms over all input strings."""
        return sum(len(entry.selected) for entry in self.per_entity.values())

    def as_dictionary(self) -> dict[str, list[str]]:
        """Plain {canonical: [synonyms...]} mapping for downstream users."""
        return {entry.canonical: entry.synonyms for entry in self.per_entity.values()}
