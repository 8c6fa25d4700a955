"""Deterministic workload synthesis from a :class:`Scenario`.

Everything here is a pure function of ``(scenario, repeat)`` — catalog
rows, click log, query stream, request plan, and delta generations all
come from :class:`random.Random` instances seeded with strings derived
from ``scenario.seed``, so two runs of the same scenario produce
byte-identical workloads on any machine.  The experiment runner records
:func:`catalog_fingerprint` / :func:`stream_fingerprint` in every result
file, which is how CI proves determinism with two back-to-back runs.

The catalog uses the mined-rows shape (``canonical``/``synonym``/
``clicks``) that ``repro mine`` writes, so :func:`entries_from_rows` turns
it into dictionary entries with the same builder the CLI uses
(:func:`~repro.matching.index.entries_from_mined_rows`).
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from repro.clicklog.log import ClickLog
from repro.clicklog.records import ClickRecord
from repro.matching.index import DictionaryEntry, entries_from_mined_rows, mined_row
from repro.scenarios.spec import Scenario

if TYPE_CHECKING:
    from repro.matching.dictionary import SynonymDictionary

__all__ = [
    "Catalog",
    "Request",
    "annotated_query_stream",
    "build_catalog",
    "catalog_fingerprint",
    "click_log_from_rows",
    "dictionary_from_rows",
    "entries_from_rows",
    "mutate_rows",
    "query_stream",
    "request_stream",
    "stream_fingerprint",
]

# Word pools for synthetic entity names.  Size matters more than flavor:
# 24 x 24 combinations keep 4-digit-suffixed names unique and readable.
_ADJECTIVES = (
    "atomic", "bright", "cobalt", "crimson", "dusty", "ember", "frosted",
    "golden", "hidden", "ivory", "jade", "lunar", "mellow", "nimble",
    "onyx", "pearl", "quiet", "rustic", "silver", "tidal", "umber",
    "velvet", "wild", "zesty",
)
_NOUNS = (
    "anchor", "beacon", "canyon", "drift", "engine", "falcon", "grove",
    "harbor", "island", "jungle", "kettle", "lantern", "meadow", "nebula",
    "orchard", "prairie", "quarry", "river", "summit", "tundra", "valley",
    "willow", "yonder", "zephyr",
)
_CONTEXT_WORDS = (
    "review", "price", "specs", "download", "near me", "official site",
    "vs", "wiki",
)
# Non-ASCII alias stems: accents that NFKD-fold, plus Cyrillic and CJK
# that survive normalization untouched — both paths must round-trip.
_MULTILINGUAL_STEMS = (
    "película", "crème brûlée", "größe", "niño", "café",
    "фильм", "телефон", "музыка", "映画", "音楽", "学校",
)

# Queries hashed into the stream fingerprint per repeat.  A fixed-length
# prefix (not "whatever the run managed to send") is what makes the
# fingerprint timing-independent and therefore comparable across runs.
FINGERPRINT_QUERIES = 1024


@dataclass(frozen=True)
class Request:
    """One planned wire request: which endpoint, which queries."""

    endpoint: str  # "match" | "resolve"
    queries: tuple[str, ...]

    @property
    def batched(self) -> bool:
        return len(self.queries) > 1


@dataclass(frozen=True)
class Catalog:
    """Synthesized catalog plus the pre-computed zipf pick tables."""

    rows: tuple[dict[str, Any], ...]
    aliases: tuple[str, ...]
    cum_weights: tuple[float, ...]
    multilingual_aliases: frozenset[str]
    multilingual_entities: int


def _canonical_name(rank: int) -> str:
    adjective = _ADJECTIVES[rank % len(_ADJECTIVES)]
    noun = _NOUNS[(rank // len(_ADJECTIVES)) % len(_NOUNS)]
    return f"{adjective} {noun} {rank:04d}"


def _synonym_templates(canonical: str) -> Iterator[str]:
    adjective, noun, suffix = canonical.split(" ", 2)
    yield f"{noun} {suffix}"
    yield f"{adjective} {suffix}"
    yield f"the {adjective} {noun} {suffix}"
    yield f"{noun} model {suffix}"
    generation = 2
    while True:  # synonyms_per_entity beyond the fixed templates
        yield f"{adjective} {noun} mk{generation} {suffix}"
        generation += 1


def build_catalog(scenario: Scenario) -> Catalog:
    """Rows + zipf tables for *scenario*, seeded by ``scenario.seed`` alone.

    Entity rank doubles as popularity rank: rank ``i`` gets click volume
    and zipf pick weight proportional to ``1 / (i + 1) ** zipf_exponent``,
    so the head of the catalog is also the head of the query stream.
    """
    rng = random.Random(f"{scenario.seed}:catalog")
    rows: list[dict[str, Any]] = []
    aliases: list[str] = []
    weights: list[float] = []
    multilingual: set[str] = set()
    multilingual_entities = 0
    for rank in range(scenario.entities):
        canonical = _canonical_name(rank)
        entity_weight = 1.0 / (rank + 1) ** scenario.zipf_exponent
        base_clicks = max(1, int(120_000 * entity_weight))
        entity_aliases = [canonical]
        templates = _synonym_templates(canonical)
        for _ in range(scenario.synonyms_per_entity):
            entity_aliases.append(next(templates))
        if rng.random() < scenario.multilingual_share:
            stem = _MULTILINGUAL_STEMS[rng.randrange(len(_MULTILINGUAL_STEMS))]
            alias = f"{stem} {rank:04d}"
            entity_aliases.append(alias)
            multilingual.add(alias)
            multilingual_entities += 1
        for position, alias in enumerate(entity_aliases[1:]):
            rows.append(
                {
                    "canonical": canonical,
                    "synonym": alias,
                    "clicks": max(1, base_clicks // (position + 2)),
                }
            )
        per_alias = entity_weight / len(entity_aliases)
        for alias in entity_aliases:
            aliases.append(alias)
            weights.append(per_alias)
    cum_weights: list[float] = []
    total = 0.0
    for weight in weights:
        total += weight
        cum_weights.append(total)
    return Catalog(
        rows=tuple(rows),
        aliases=tuple(aliases),
        cum_weights=tuple(cum_weights),
        multilingual_aliases=frozenset(multilingual),
        multilingual_entities=multilingual_entities,
    )


def entries_from_rows(rows: Sequence[dict[str, Any]]) -> Iterator[DictionaryEntry]:
    """Dictionary entries for mined rows (what the scenario driver publishes)."""
    return entries_from_mined_rows(mined_row(**row) for row in rows)


def dictionary_from_rows(rows: Sequence[dict[str, Any]]) -> "SynonymDictionary":
    """The reference :class:`SynonymDictionary` over :func:`entries_from_rows`.

    Only the perf harness reads it; the scenario driver compiles
    :func:`entries_from_rows` directly.
    """
    from repro.matching.dictionary import SynonymDictionary

    return SynonymDictionary(entries_from_rows(rows))


def click_log_from_rows(rows: Sequence[dict[str, Any]]) -> ClickLog:
    """Click log consistent with the rows' click volumes (for priors).

    Every alias clicks through to its entity's one URL, so entity priors
    are exactly the sum of the entity's alias click volumes — the same
    log must be replayed for every delta diff to keep priors chained.
    """
    return ClickLog(
        ClickRecord(
            row["synonym"],
            f"https://catalog.example/{row['canonical'].replace(' ', '-')}",
            int(row["clicks"]),
        )
        for row in rows
    )


def catalog_fingerprint(rows: Sequence[dict[str, Any]]) -> str:
    """Order-sensitive sha256 of the rows; equal rows <=> equal artifact."""
    digest = hashlib.sha256()
    for row in rows:
        digest.update(
            f"{row['canonical']}\t{row['synonym']}\t{row['clicks']}\n".encode("utf-8")
        )
    return digest.hexdigest()


def _misspell(text: str, rng: random.Random) -> str:
    """One keyboard-class typo on the longest token (swap/drop/double)."""
    tokens = text.split()
    index = max(range(len(tokens)), key=lambda i: len(tokens[i]))
    token = tokens[index]
    if len(token) < 2:
        token = token + token
    else:
        kind = rng.randrange(3)
        at = rng.randrange(len(token) - 1)
        if kind == 0:  # swap adjacent
            token = token[:at] + token[at + 1] + token[at] + token[at + 2:]
        elif kind == 1:  # drop
            token = token[:at] + token[at + 1:]
        else:  # double
            token = token[:at + 1] + token[at] + token[at + 1:]
    tokens[index] = token
    return " ".join(tokens)


def annotated_query_stream(
    scenario: Scenario, catalog: Catalog, *, repeat: int = 0
) -> Iterator[tuple[str, str]]:
    """Infinite ``(query, kind)`` stream; kind in hit/noisy/context/miss.

    Seeded per repeat (``seed:repeat:queries``) so repeats explore
    different samples of the same distribution while staying replayable.
    """
    rng = random.Random(f"{scenario.seed}:{repeat}:queries")
    aliases = catalog.aliases
    cum_weights = catalog.cum_weights
    total = cum_weights[-1]
    while True:
        if rng.random() < scenario.miss_rate:
            yield f"zzqx {rng.randrange(1_000_000):06d} unmatched", "miss"
            continue
        alias = aliases[bisect_right(cum_weights, rng.random() * total)]
        roll = rng.random()
        if roll < scenario.noise_rate:
            yield _misspell(alias, rng), "noisy"
        elif roll < scenario.noise_rate + scenario.context_rate:
            context = _CONTEXT_WORDS[rng.randrange(len(_CONTEXT_WORDS))]
            yield f"{alias} {context}", "context"
        else:
            yield alias, "hit"


def query_stream(
    scenario: Scenario, catalog: Catalog, *, repeat: int = 0
) -> Iterator[str]:
    """Just the queries of :func:`annotated_query_stream`."""
    for query, _kind in annotated_query_stream(scenario, catalog, repeat=repeat):
        yield query


def stream_fingerprint(
    scenario: Scenario,
    catalog: Catalog,
    *,
    repeat: int = 0,
    count: int = FINGERPRINT_QUERIES,
) -> str:
    """sha256 over the first *count* queries of this repeat's stream."""
    digest = hashlib.sha256()
    stream = query_stream(scenario, catalog, repeat=repeat)
    for _ in range(count):
        digest.update(next(stream).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def request_stream(
    scenario: Scenario, catalog: Catalog, *, repeat: int = 0
) -> Iterator[Request]:
    """Infinite request plan applying the scenario's traffic mix.

    The endpoint/batch dice use their own RNG (``seed:repeat:mix``) so
    changing the traffic mix does not perturb which queries are drawn.
    """
    rng = random.Random(f"{scenario.seed}:{repeat}:mix")
    queries = query_stream(scenario, catalog, repeat=repeat)
    while True:
        endpoint = "resolve" if rng.random() < scenario.resolve_ratio else "match"
        size = scenario.batch_size if rng.random() < scenario.batch_ratio else 1
        yield Request(endpoint, tuple(next(queries) for _ in range(size)))


def mutate_rows(
    rows: Sequence[dict[str, Any]], scenario: Scenario, *, generation: int
) -> list[dict[str, Any]]:
    """Rows for delta *generation*: churn ``dirty_fraction`` of entities.

    Each dirty entity gains one fresh alias and re-weights an existing
    one, mirroring an incremental mining pass.  Deterministic per
    ``(seed, generation)`` and chained: feed generation N's rows back in
    to get generation N+1.
    """
    if generation < 1:
        raise ValueError(f"generation must be >= 1, got {generation}")
    rng = random.Random(f"{scenario.seed}:delta:{generation}")
    dirty = max(1, round(scenario.entities * scenario.dirty_fraction))
    dirty_ranks = rng.sample(range(scenario.entities), min(dirty, scenario.entities))
    mutated = [dict(row) for row in rows]
    by_canonical: dict[str, list[int]] = {}
    for index, row in enumerate(mutated):
        by_canonical.setdefault(row["canonical"], []).append(index)
    for rank in sorted(dirty_ranks):
        canonical = _canonical_name(rank)
        mutated.append(
            {
                "canonical": canonical,
                "synonym": f"{canonical.split()[1]} gen{generation} {rank:04d}",
                "clicks": rng.randint(100, 20_000),
            }
        )
        indices = by_canonical.get(canonical)
        if indices:
            victim = mutated[indices[rng.randrange(len(indices))]]
            victim["clicks"] = max(1, int(victim["clicks"] * rng.uniform(0.5, 2.0)))
    return mutated
