"""Synthetic web corpus generation.

The paper relies on the fact that entities "have some representation on the
Web": manufacturer pages, shop listings, Wikipedia articles, review sites,
fan pages.  Content creators sometimes embed alternative names in those
pages ("Digital REBEL XT", "350D") to make them findable.  This generator
reproduces that ecosystem:

* each entity gets several pages across different simulated sites, whose
  number grows with entity popularity;
* a fixed fraction of pages embed some of the entity's true aliases
  in the body (the eBay-seller behaviour the paper describes);
* cross-entity "list" pages (top-10 lists, brand catalog pages) mention
  many entities at once — these are the pages hypernym queries land on; and
* background pages about the domain in general add realistic noise.

The corpus is deterministic given the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.search.documents import Corpus, WebPage
from repro.simulation.aliases import AliasKind, AliasTable
from repro.simulation.catalog import Entity, EntityCatalog
from repro.text.normalize import normalize

__all__ = ["WebGenConfig", "WebCorpusGenerator"]

_MOVIE_SITES = [
    ("studio.example.com", "official site"),
    ("wikizilla.example.org", "encyclopedia article"),
    ("reelreviews.example.com", "critic review"),
    ("cinetimes.example.com", "showtimes and tickets"),
    ("fanforum.example.net", "fan discussion"),
    ("streamnow.example.com", "streaming page"),
    ("newsportal.example.com", "news coverage"),
    ("postershop.example.com", "poster shop listing"),
]

_CAMERA_SITES = [
    ("maker.example.com", "manufacturer specifications"),
    ("wikizilla.example.org", "encyclopedia article"),
    ("shopmart.example.com", "shop listing"),
    ("lenslab.example.com", "hands-on review"),
    ("dealfinder.example.com", "price comparison"),
    ("photoforum.example.net", "owner discussion"),
]

_FILLER_SENTENCES = [
    "The page also links to press releases and related coverage.",
    "Readers can leave comments and rate this entry.",
    "Additional photos and specifications are listed below.",
    "Sign up for the newsletter to receive weekly updates.",
    "Availability and details may vary by region.",
    "See the frequently asked questions for more information.",
]


MIN_PAGES_PER_ENTITY = 4
MAX_PAGES_PER_ENTITY = 12
"""Page count per entity is interpolated between these bounds by the
entity's popularity percentile."""

ALIAS_EMBEDDING_PROBABILITY = 0.6
"""Chance that a given true alias is spelled out in the body of a given
entity page ("also known as ...")."""

ENTITIES_PER_LIST_PAGE = 10
"""How many entities one cross-entity list page mentions."""


@dataclass(frozen=True)
class WebGenConfig:
    """Knobs of the corpus generator.

    Attributes
    ----------
    list_page_count:
        Number of cross-entity list pages (each mentions several entities).
    background_page_count:
        Number of domain-generic pages about no particular entity.
    seed:
        Seed of the generator's private RNG.
    """

    list_page_count: int = 40
    background_page_count: int = 60
    seed: int = 17


class WebCorpusGenerator:
    """Builds the synthetic :class:`~repro.search.documents.Corpus`."""

    def __init__(self, config: WebGenConfig | None = None) -> None:
        self.config = config or WebGenConfig()

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def generate(self, catalog: EntityCatalog, alias_table: AliasTable) -> Corpus:
        """Generate the corpus for *catalog* using *alias_table* for the
        alternative names content creators embed."""
        rng = random.Random(self.config.seed)
        corpus = Corpus()
        ranked = sorted(catalog, key=lambda entity: -entity.popularity)
        total = max(len(ranked), 1)

        for rank, entity in enumerate(ranked):
            percentile = 1.0 - rank / total
            page_count = self._page_count(percentile)
            sites = _MOVIE_SITES if entity.domain == "movie" else _CAMERA_SITES
            aliases = self._embeddable_aliases(entity, alias_table)
            for page_index in range(page_count):
                site, style = sites[page_index % len(sites)]
                if page_index >= len(sites):
                    style = f"{style} (mirror {page_index // len(sites)})"
                page = self._entity_page(entity, site, style, page_index, aliases, rng)
                corpus.add(page)

        for list_index in range(self.config.list_page_count):
            corpus.add(self._list_page(catalog, ranked, list_index, rng))

        for background_index in range(self.config.background_page_count):
            corpus.add(self._background_page(catalog.domain, background_index, rng))

        return corpus

    # ------------------------------------------------------------------ #
    # Entity pages
    # ------------------------------------------------------------------ #

    def _page_count(self, popularity_percentile: float) -> int:
        low, high = MIN_PAGES_PER_ENTITY, MAX_PAGES_PER_ENTITY
        return low + round(popularity_percentile * (high - low))

    def _embeddable_aliases(self, entity: Entity, alias_table: AliasTable) -> list[str]:
        """True synonyms (and ambiguous short forms) content creators may list."""
        return [
            record.alias
            for record in alias_table.records_for(entity.entity_id)
            if record.kind in (AliasKind.SYNONYM, AliasKind.AMBIGUOUS)
        ]

    def _entity_page(
        self,
        entity: Entity,
        site: str,
        style: str,
        page_index: int,
        aliases: list[str],
        rng: random.Random,
    ) -> WebPage:
        slug = normalize(entity.canonical_name).replace(" ", "-")
        url = f"https://{site}/{slug}-{page_index}"
        title = f"{entity.canonical_name} - {style}"

        sentences = [
            f"{entity.canonical_name} {style} page.",
            f"Everything about {entity.canonical_name}.",
        ]
        for key, value in entity.attributes.items():
            if value:
                sentences.append(f"{key}: {value}.")
        embedded = [
            alias
            for alias in aliases
            if rng.random() < ALIAS_EMBEDDING_PROBABILITY
        ]
        if embedded:
            sentences.append("Also known as " + ", ".join(embedded) + ".")
        sentences.append(rng.choice(_FILLER_SENTENCES))
        sentences.append(rng.choice(_FILLER_SENTENCES))

        return WebPage(
            url=url,
            title=title,
            body=" ".join(sentences),
            site=site,
            entity_id=entity.entity_id,
        )

    # ------------------------------------------------------------------ #
    # List and background pages
    # ------------------------------------------------------------------ #

    def _list_page(
        self,
        catalog: EntityCatalog,
        ranked: list[Entity],
        list_index: int,
        rng: random.Random,
    ) -> WebPage:
        domain = catalog.domain
        count = min(ENTITIES_PER_LIST_PAGE, len(ranked))
        # List pages skew toward popular entities, like real "top N" articles.
        pool = ranked[: max(count * 4, count)]
        members = rng.sample(pool, count)
        names = [entity.canonical_name for entity in members]
        title = f"Top {count} {domain}s roundup #{list_index + 1}"
        body = (
            f"Our editors compare the best {domain}s of the season: "
            + "; ".join(names)
            + ". "
            + rng.choice(_FILLER_SENTENCES)
        )
        return WebPage(
            url=f"https://listicles.example.com/{domain}-roundup-{list_index}",
            title=title,
            body=body,
            site="listicles.example.com",
            entity_id=None,
        )

    def _background_page(self, domain: str, index: int, rng: random.Random) -> WebPage:
        topics = {
            "movie": [
                "box office analysis", "casting rumours", "film festival diary",
                "home cinema setup guide", "streaming service comparison",
            ],
            "camera": [
                "photography tutorial", "lens buying guide", "tripod comparison",
                "memory card benchmark", "photo editing workflow",
            ],
        }
        topic = rng.choice(topics.get(domain, ["general interest article"]))
        title = f"{topic.title()} #{index + 1}"
        body = (
            f"A general {topic} that does not discuss any specific {domain}. "
            + rng.choice(_FILLER_SENTENCES)
            + " "
            + rng.choice(_FILLER_SENTENCES)
        )
        return WebPage(
            url=f"https://magazine.example.com/{domain}-article-{index}",
            title=title,
            body=body,
            site="magazine.example.com",
            entity_id=None,
        )
