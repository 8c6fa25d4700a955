"""Ground-truth aliases: the oracle ``F`` of the paper's Section II.

The paper assumes an ideal mapping ``F(s, E)`` from any string to the set of
entities it refers to, existing "only in the collective minds of all users".
In a simulation we *own* that mapping: this module generates, for every
catalog entity, the strings users genuinely use for it and labels each
string as

* ``SYNONYM``   — refers to exactly this entity (Definition 1),
* ``HYPERNYM``  — refers to a strict superset (franchise, brand, category),
* ``HYPONYM``   — refers to a strict subset / a narrower aspect,
* ``RELATED``   — related but neither (actors, accessories, competitors),
* ``AMBIGUOUS`` — a generated short form that collides across entities and
  therefore is *not* a synonym of any single one.

The user simulator samples queries from these records (plus aspect-modifier
queries it composes on the fly); the evaluator uses the same records as the
ground truth for precision.  That is exactly the role human judges play in
the paper, with the advantage that the judgement here is exact.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.simulation.catalog import Entity, EntityCatalog
from repro.text.normalize import normalize
from repro.text.stopwords import STOPWORDS
from repro.text.tokenize import tokenize

__all__ = ["AliasKind", "AliasRecord", "AliasTable", "build_alias_table"]


class AliasKind(enum.Enum):
    """Semantic relation between an alias string and an entity."""

    SYNONYM = "synonym"
    HYPERNYM = "hypernym"
    HYPONYM = "hyponym"
    RELATED = "related"
    AMBIGUOUS = "ambiguous"


@dataclass(frozen=True)
class AliasRecord:
    """One (entity, alias string, relation kind, usage weight) fact."""

    entity_id: str
    alias: str
    kind: AliasKind
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")
        if not self.alias:
            raise ValueError("alias must be non-empty")


_ROMAN = {2: "ii", 3: "iii", 4: "iv", 5: "v", 6: "vi", 7: "vii", 8: "viii", 9: "ix"}


def _nickname(first_name: str) -> str:
    """Short diminutive of a hero first name ("Marcus" → "marky")."""
    stem_part = first_name.lower()[:4].rstrip("aeiou") or first_name.lower()[:3]
    return stem_part + "y"


def _acronym(text: str) -> str:
    """Initialism of the content words of *text* ("Lord of the Rings" → "lotr")."""
    tokens = [token for token in tokenize(text) if token not in STOPWORDS]
    return "".join(token[0] for token in tokens)


def _typo(text: str, rng: random.Random) -> str:
    """Introduce one realistic typo into the longest token of *text*."""
    tokens = tokenize(text)
    if not tokens:
        return text
    target_index = max(range(len(tokens)), key=lambda i: len(tokens[i]))
    token = tokens[target_index]
    if len(token) < 4:
        return text
    mode = rng.choice(["swap", "drop", "double"])
    pos = rng.randrange(1, len(token) - 1)
    if mode == "swap":
        mutated = token[: pos] + token[pos + 1] + token[pos] + token[pos + 2 :]
    elif mode == "drop":
        mutated = token[:pos] + token[pos + 1 :]
    else:
        mutated = token[:pos] + token[pos] + token[pos:]
    tokens[target_index] = mutated
    return " ".join(tokens)


class AliasTable:
    """All ground-truth alias records, indexed both ways."""

    def __init__(self, records: Iterable[AliasRecord] = ()) -> None:
        self._records: list[AliasRecord] = []
        self._by_entity: dict[str, list[AliasRecord]] = {}
        self._by_alias: dict[str, list[AliasRecord]] = {}
        for record in records:
            self.add(record)

    def add(self, record: AliasRecord) -> None:
        """Add one record (aliases are stored in normalized form)."""
        normalized = normalize(record.alias)
        if normalized != record.alias:
            record = AliasRecord(record.entity_id, normalized, record.kind, record.weight)
        self._records.append(record)
        self._by_entity.setdefault(record.entity_id, []).append(record)
        self._by_alias.setdefault(record.alias, []).append(record)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[AliasRecord]:
        return iter(self._records)

    # ------------------------------------------------------------------ #
    # Ground-truth queries (the oracle F)
    # ------------------------------------------------------------------ #

    def records_for(self, entity_id: str) -> list[AliasRecord]:
        """All alias records of one entity."""
        return list(self._by_entity.get(entity_id, ()))

    def synonyms_of(self, entity_id: str) -> set[str]:
        """The true-synonym strings of an entity (normalized)."""
        return {
            record.alias
            for record in self._by_entity.get(entity_id, ())
            if record.kind is AliasKind.SYNONYM
        }

    def kind_of(self, alias: str, entity_id: str) -> AliasKind | None:
        """Relation of *alias* to *entity_id*, or ``None`` if unrecorded."""
        normalized = normalize(alias)
        for record in self._by_alias.get(normalized, ()):
            if record.entity_id == entity_id:
                return record.kind
        return None


# --------------------------------------------------------------------------- #
# Per-domain alias generation
# --------------------------------------------------------------------------- #

def _movie_alias_records(entity: Entity, rng: random.Random) -> list[AliasRecord]:
    records: list[AliasRecord] = []
    title = entity.canonical_name
    franchise = entity.attributes.get("franchise", "")
    installment = int(entity.attributes.get("installment", "1"))

    def synonym(alias: str, weight: float) -> None:
        records.append(AliasRecord(entity.entity_id, alias, AliasKind.SYNONYM, weight))

    if franchise:
        hero_first = franchise.split()[0]
        nickname = _nickname(hero_first)
        if installment >= 2:
            synonym(f"{franchise} {installment}", 5.0)
            synonym(f"{nickname} {installment}", 4.0)
            roman = _ROMAN.get(installment)
            if roman:
                synonym(f"{franchise} {roman}", 2.0)
        else:
            # The bare franchise name refers to the whole series (hypernym);
            # the explicit "1" form is the synonym users type.
            synonym(f"{franchise} 1", 2.0)
            synonym(f"the first {franchise} movie", 1.0)
        records.append(
            AliasRecord(entity.entity_id, franchise, AliasKind.HYPERNYM, 3.0)
        )
        records.append(
            AliasRecord(
                entity.entity_id, f"{franchise} series", AliasKind.HYPERNYM, 1.0
            )
        )
        # Subtitle-only reference ("Kingdom of the Crystal Skull").
        lowered = title.lower()
        marker = " and the "
        if marker in lowered:
            subtitle = title[lowered.index(marker) + len(marker):]
            synonym(subtitle, 2.5)
    else:
        acronym = _acronym(title)
        if len(acronym) >= 3:
            synonym(acronym, 3.0)
        tokens = tokenize(title)
        content = [token for token in tokens if token not in STOPWORDS]
        if len(content) >= 2:
            synonym(" ".join(content[:2]), 2.5)
        synonym(f"{title} movie", 1.5)

    synonym(_typo(title, rng), 0.5)
    records.append(
        AliasRecord(entity.entity_id, "2008 movies", AliasKind.HYPERNYM, 0.5)
    )
    records.append(
        AliasRecord(
            entity.entity_id, f"{title} dvd release", AliasKind.HYPONYM, 0.6
        )
    )
    records.append(
        AliasRecord(entity.entity_id, "box office hits", AliasKind.RELATED, 0.4)
    )
    return records


def _camera_alias_records(entity: Entity, rng: random.Random) -> list[AliasRecord]:
    records: list[AliasRecord] = []
    brand = entity.attributes.get("brand", "")
    line = entity.attributes.get("line", "")
    model = entity.attributes.get("model", "")
    codename = entity.attributes.get("codename", "")

    def synonym(alias: str, weight: float) -> None:
        records.append(AliasRecord(entity.entity_id, alias, AliasKind.SYNONYM, weight))

    if line and model:
        synonym(f"{line} {model}", 4.0)
    if brand and model:
        synonym(f"{brand} {model}", 3.0)
    if model:
        synonym(model, 2.0)
    if codename:
        synonym(codename, 4.0)
        if brand:
            synonym(f"{brand} {codename}", 2.0)
    synonym(_typo(entity.canonical_name, rng), 0.4)

    if brand:
        records.append(AliasRecord(entity.entity_id, brand, AliasKind.HYPERNYM, 1.5))
        records.append(
            AliasRecord(entity.entity_id, f"{brand} camera", AliasKind.HYPERNYM, 1.0)
        )
    if brand and line:
        records.append(
            AliasRecord(entity.entity_id, f"{brand} {line}", AliasKind.HYPERNYM, 2.0)
        )
    records.append(
        AliasRecord(entity.entity_id, "digital camera", AliasKind.HYPERNYM, 0.5)
    )
    records.append(
        AliasRecord(
            entity.entity_id,
            f"{entity.canonical_name} battery grip",
            AliasKind.HYPONYM,
            0.6,
        )
    )
    records.append(
        AliasRecord(entity.entity_id, "camera reviews", AliasKind.RELATED, 0.3)
    )
    return records


def build_alias_table(catalog: EntityCatalog, *, seed: int = 7) -> AliasTable:
    """Generate the ground-truth alias table for *catalog*.

    Generated short forms that collide across entities (e.g. two cameras
    sharing the bare model number "350") are demoted from ``SYNONYM`` to
    ``AMBIGUOUS``: by Definition 1 a string referring to more than one
    entity is not a synonym of any single one.
    """
    rng = random.Random(seed)
    raw_records: list[AliasRecord] = []
    for entity in catalog:
        if catalog.domain == "movie":
            generated = _movie_alias_records(entity, rng)
        elif catalog.domain == "camera":
            generated = _camera_alias_records(entity, rng)
        else:
            raise ValueError(f"no alias generator for domain {catalog.domain!r}")
        canonical = entity.normalized_name
        for record in generated:
            if normalize(record.alias) == canonical:
                continue
            raw_records.append(record)

    # Demote synonym strings claimed by more than one entity.
    synonym_claims: dict[str, set[str]] = {}
    for record in raw_records:
        if record.kind is AliasKind.SYNONYM:
            synonym_claims.setdefault(normalize(record.alias), set()).add(record.entity_id)
    ambiguous = {alias for alias, owners in synonym_claims.items() if len(owners) > 1}

    table = AliasTable()
    for record in raw_records:
        if record.kind is AliasKind.SYNONYM and normalize(record.alias) in ambiguous:
            record = AliasRecord(
                record.entity_id, record.alias, AliasKind.AMBIGUOUS, record.weight
            )
        table.add(record)
    return table
