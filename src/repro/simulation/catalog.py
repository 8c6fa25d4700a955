"""Entity catalogs: the structured data whose values need synonym expansion.

The paper evaluates on two datasets:

* **D1** — the titles of the top 100 movies of the 2008 box office;
* **D2** — 882 canonical digital-camera names crawled from MSN Shopping.

Neither list ships with the paper, so the catalogs here are *synthetic but
structurally faithful*: movie titles are long, franchise-heavy strings with
subtitles and sequel numbers; camera names are brand + line + model-number
strings, a subset of which carry a regional marketing codename (the
"Canon EOS 350D" / "Digital Rebel XT" phenomenon).  Popularity follows a
Zipf law with movies markedly more popular than cameras, which is the
property Table I's Wikipedia comparison depends on.

Everything is generated deterministically from a seed so experiments are
exactly reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from repro.text.normalize import normalize

__all__ = ["Entity", "EntityCatalog", "movie_catalog", "camera_catalog"]


@dataclass(frozen=True)
class Entity:
    """One structured-data entity.

    Attributes
    ----------
    entity_id:
        Stable unique identifier (``"movie-017"``, ``"camera-0421"``).
    canonical_name:
        The full, formal data value content creators use — the string ``u``
        the miner expands.
    domain:
        ``"movie"`` or ``"camera"`` for the paper's datasets; other domains
        are allowed for library users.
    popularity:
        Relative query-volume weight (> 0); drives how often simulated
        users search for this entity and how likely Wikipedia covers it.
    attributes:
        Additional structured fields (year, franchise, brand, ...), exposed
        to example applications but never read by the miner.
    """

    entity_id: str
    canonical_name: str
    domain: str
    popularity: float = 1.0
    attributes: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.popularity <= 0:
            raise ValueError(f"popularity must be positive, got {self.popularity}")
        if not self.canonical_name.strip():
            raise ValueError("canonical_name must be non-empty")

    @property
    def normalized_name(self) -> str:
        """Canonical name in normalized (query-identity) form."""
        return normalize(self.canonical_name)


class EntityCatalog:
    """An ordered collection of entities of one domain."""

    def __init__(self, domain: str, entities: Iterable[Entity] = ()) -> None:
        self.domain = domain
        self._entities: dict[str, Entity] = {}
        for entity in entities:
            self.add(entity)

    def add(self, entity: Entity) -> None:
        """Add *entity*; duplicate ids are an error."""
        if entity.entity_id in self._entities:
            raise ValueError(f"duplicate entity_id: {entity.entity_id!r}")
        if entity.domain != self.domain:
            raise ValueError(
                f"entity domain {entity.domain!r} does not match catalog domain {self.domain!r}"
            )
        self._entities[entity.entity_id] = entity

    def __len__(self) -> int:
        return len(self._entities)

    def __iter__(self) -> Iterator[Entity]:
        return iter(self._entities.values())

    def __contains__(self, entity_id: str) -> bool:
        return entity_id in self._entities

    def get(self, entity_id: str) -> Entity | None:
        """Return the entity with *entity_id*, or ``None``."""
        return self._entities.get(entity_id)

    def __getitem__(self, entity_id: str) -> Entity:
        try:
            return self._entities[entity_id]
        except KeyError:
            raise KeyError(f"no entity with id {entity_id!r}") from None

    def canonical_names(self) -> list[str]:
        """Canonical names of every entity, in catalog order."""
        return [entity.canonical_name for entity in self._entities.values()]

    def by_canonical_name(self) -> dict[str, Entity]:
        """Map normalized canonical name → entity."""
        return {entity.normalized_name: entity for entity in self._entities.values()}


# --------------------------------------------------------------------------- #
# Vocabulary for synthetic names
# --------------------------------------------------------------------------- #

_HERO_NAMES = [
    "Marcus Vane", "Elena Frost", "Jack Harrow", "Nadia Storm", "Victor Kane",
    "Lyra Quinn", "Dante Cole", "Mira Ashford", "Rex Calloway", "Sable Monroe",
    "Orin Blake", "Tessa Wilder", "Hugo Mercer", "Iris Vantage", "Cole Ryder",
    "Freya Nocturne", "Silas Grim", "Juno Valiant", "Ezra Flint", "Vera Locke",
]

_MOVIE_NOUNS = [
    "Kingdom", "Empire", "Legacy", "Prophecy", "Covenant", "Labyrinth",
    "Horizon", "Citadel", "Reckoning", "Odyssey", "Tempest", "Dominion",
    "Sanctuary", "Paradox", "Eclipse", "Requiem", "Vendetta", "Genesis",
    "Inferno", "Ascension",
]

_MOVIE_QUALIFIERS = [
    "Crystal Skull", "Shattered Crown", "Silent Tide", "Burning Sky",
    "Iron Rose", "Forgotten City", "Emerald Coast", "Hollow Moon",
    "Scarlet Cipher", "Frozen Throne", "Golden Compass Rose", "Black Harbor",
    "Whispering Pines", "Obsidian Gate", "Last Lighthouse", "Broken Meridian",
    "Painted Desert", "Winter Garden", "Glass Mountain", "Copper Canyon",
]

_MOVIE_STANDALONE = [
    "Midnight Carousel", "The Paper Aviary", "Saltwater Letters",
    "A Murmur of Engines", "The Cartographer's Daughter", "Harvest of Static",
    "Ten Thousand Lanterns", "The Quiet Arithmetic", "Driftwood Symphony",
    "The Amber Staircase", "Clockwork Tide", "Sleeping Giants Waltz",
    "The Violet Hour Market", "Fireflies Over Harlan", "The Borrowed Sky",
    "Penumbra Station", "The Salt Merchant", "Anthem for Small Hours",
    "The Glasswright", "Meridian Lullaby", "Arcadia Underground",
    "The Paper Moon Heist", "November Criminals Club", "The Tin Astronaut",
    "Lighthouse for the Blind", "The Orchard Thief", "Static Bloom",
    "The Hundred Year Picnic", "Wolves of Calder Street", "The Ivory Antenna",
]

_CAMERA_BRANDS = [
    ("Canox", "KX"), ("Nivar", "NV"), ("Solaris", "SL"), ("Pentagraph", "PG"),
    ("Lumina", "LM"), ("Optik", "OP"), ("Fidelis", "FD"), ("Zentra", "ZN"),
    ("Astra", "AS"), ("Helios", "HL"),
]

_CAMERA_LINES = [
    "EON", "ProShot", "PixMaster", "AlphaView", "TruPix", "MegaZoom",
    "StellarShot", "VistaCam", "PowerLens", "UltraFrame", "ClearSight",
    "RapidFocus",
]

_CAMERA_CODENAME_ADJ = [
    "Digital Rebel", "Silver Hawk", "Night Owl", "Swift Fox", "Iron Falcon",
    "Blue Heron", "Desert Lynx", "Arctic Tern", "Crimson Kite", "Golden Osprey",
    "Shadow Wren", "Storm Petrel", "Ember Finch", "River Otter", "Summit Eagle",
]


def _zipf_popularity(rank: int, *, scale: float = 1000.0, exponent: float = 1.0) -> float:
    """Zipf-like popularity weight for the entity at 1-based *rank*."""
    return scale / (rank ** exponent)


# --------------------------------------------------------------------------- #
# D1: movies
# --------------------------------------------------------------------------- #

def movie_catalog(*, size: int = 100, seed: int = 2008) -> EntityCatalog:
    """Generate the D1-style movie catalog.

    Roughly half of the titles belong to franchises (long titles with a
    franchise name, a sequel ordinal and a subtitle — the "Indiana Jones and
    the Kingdom of the Crystal Skull" shape) and the rest are standalone
    titles.  Popularity is Zipfian in catalog rank.
    """
    if size <= 0:
        raise ValueError(f"size must be positive, got {size}")
    rng = random.Random(seed)
    entities: list[Entity] = []

    franchises: list[tuple[str, int]] = []
    hero_pool = list(_HERO_NAMES)
    rng.shuffle(hero_pool)
    for hero in hero_pool[: max(1, size // 6)]:
        franchises.append((hero, rng.randint(2, 5)))

    qualifier_pool = list(_MOVIE_QUALIFIERS)
    noun_pool = list(_MOVIE_NOUNS)
    standalone_pool = list(_MOVIE_STANDALONE)
    rng.shuffle(qualifier_pool)
    rng.shuffle(noun_pool)
    rng.shuffle(standalone_pool)

    index = 0
    for franchise_name, installments in franchises:
        for installment in range(1, installments + 1):
            if index >= size:
                break
            noun = noun_pool[index % len(noun_pool)]
            qualifier = qualifier_pool[(index * 7 + installment) % len(qualifier_pool)]
            if installment == 1:
                title = f"{franchise_name} and the {noun} of the {qualifier}"
            else:
                title = (
                    f"{franchise_name} {installment} and the {noun} of the {qualifier}"
                )
            entities.append(
                Entity(
                    entity_id=f"movie-{index:03d}",
                    canonical_name=title,
                    domain="movie",
                    popularity=_zipf_popularity(index + 1),
                    attributes={
                        "franchise": franchise_name,
                        "installment": str(installment),
                        "year": str(2008 - (installments - installment)),
                    },
                )
            )
            index += 1

    standalone_index = 0
    while index < size:
        base = standalone_pool[standalone_index % len(standalone_pool)]
        suffix_round = standalone_index // len(standalone_pool)
        title = base if suffix_round == 0 else f"{base} {('Returns', 'Reborn', 'Forever')[suffix_round % 3]}"
        entities.append(
            Entity(
                entity_id=f"movie-{index:03d}",
                canonical_name=title,
                domain="movie",
                popularity=_zipf_popularity(index + 1),
                attributes={"franchise": "", "installment": "1", "year": "2008"},
            )
        )
        index += 1
        standalone_index += 1

    return EntityCatalog("movie", entities)


# --------------------------------------------------------------------------- #
# D2: cameras
# --------------------------------------------------------------------------- #

def camera_catalog(*, size: int = 882, seed: int = 350) -> EntityCatalog:
    """Generate the D2-style camera catalog.

    Canonical names look like ``"Canox EON 350D"``.  About a third of the
    models additionally have a marketing codename used in another region
    (``"Digital Rebel XT"``), which is the hard case motivating the paper:
    the codename shares no tokens with the canonical name.  Camera
    popularity is two orders of magnitude below movie popularity, giving
    cameras the long-tail character that makes Wikipedia coverage poor.
    """
    if size <= 0:
        raise ValueError(f"size must be positive, got {size}")
    rng = random.Random(seed)
    entities: list[Entity] = []
    used_names: set[str] = set()

    codename_suffixes = ["XT", "XTi", "SE", "Pro", "II", "Z", "GT", "LX"]

    index = 0
    attempts = 0
    while index < size:
        attempts += 1
        if attempts > size * 50:
            raise RuntimeError("camera name space exhausted; increase vocabulary")
        brand, brand_code = _CAMERA_BRANDS[rng.randrange(len(_CAMERA_BRANDS))]
        line = _CAMERA_LINES[rng.randrange(len(_CAMERA_LINES))]
        number = rng.choice([rng.randrange(10, 100), rng.randrange(100, 1000), rng.randrange(1000, 10000)])
        letter = rng.choice(["", "D", "X", "S", "Ti", "HS", "IS", "Mark II", "Mark III"])
        model = f"{number}{letter}" if letter and not letter.startswith("Mark") else (
            f"{number} {letter}" if letter else f"{number}"
        )
        canonical = f"{brand} {line} {model}"
        if canonical in used_names:
            continue
        used_names.add(canonical)

        has_codename = rng.random() < 0.35
        codename = ""
        if has_codename:
            codename_adj = _CAMERA_CODENAME_ADJ[rng.randrange(len(_CAMERA_CODENAME_ADJ))]
            codename = f"{codename_adj} {rng.choice(codename_suffixes)}"

        entities.append(
            Entity(
                entity_id=f"camera-{index:04d}",
                canonical_name=canonical,
                domain="camera",
                popularity=_zipf_popularity(index + 1, scale=20.0, exponent=0.7),
                attributes={
                    "brand": brand,
                    "brand_code": brand_code,
                    "line": line,
                    "model": model,
                    "codename": codename,
                },
            )
        )
        index += 1

    return EntityCatalog("camera", entities)
