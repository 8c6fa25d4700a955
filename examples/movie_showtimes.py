#!/usr/bin/env python3
"""The paper's motivating example: answering "Indy 4 near San Fran"-style queries.

A showtimes application has a structured movie database keyed by full,
formal titles.  Live Web queries refer to movies informally.  This example
shows the before/after of plugging the mined synonym dictionary into the
query-matching front-end:

1. build the D1-style movie world and mine synonyms offline;
2. compile two dictionaries — canonical names only vs canonical + mined; and
3. run a batch of realistic live queries through the matcher with each
   dictionary and compare how many resolve to the right movie entity.

Run with::

    python examples/movie_showtimes.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core import MinerConfig, SynonymMiner
from repro.matching import QueryMatcher, entries_from_mining_result
from repro.serving import SynonymArtifact
from repro.simulation import WorldConfig, build_world

LOCATION_SUFFIXES = ["near san fran", "showtimes", "tickets tonight", "near me", "imax"]


def main() -> None:
    print("Building the movies world (100 titles) and mining synonyms...")
    world = build_world(WorldConfig.movies(session_count=30_000))
    miner = SynonymMiner(
        click_log=world.click_log,
        search_log=world.search_log,
        config=MinerConfig(),
    )
    result = miner.mine(world.canonical_queries())
    print(f"  mined {result.synonym_count} synonyms for {result.hit_count} movies\n")

    entries = list(entries_from_mining_result(result, world.catalog))
    expanded = SynonymArtifact.from_entries(entries)
    canonical_only = SynonymArtifact.from_entries(
        entry for entry in entries if entry.source == "canonical"
    )

    expanded_matcher = QueryMatcher(expanded)
    baseline_matcher = QueryMatcher(canonical_only)

    # Live queries: every true alias the simulated users actually employ,
    # decorated with showtimes-style context words.
    live_queries: list[tuple[str, str]] = []
    for entity in world.catalog:
        for index, alias in enumerate(sorted(world.alias_table.synonyms_of(entity.entity_id))):
            suffix = LOCATION_SUFFIXES[index % len(LOCATION_SUFFIXES)]
            live_queries.append((f"{alias} {suffix}", entity.entity_id))

    def evaluate(matcher: QueryMatcher, label: str) -> None:
        resolved = 0
        correct = 0
        for query, expected_entity in live_queries:
            match = matcher.match(query)
            if match.matched:
                resolved += 1
                if expected_entity in match.entity_ids:
                    correct += 1
        print(
            f"  {label:<28} resolved {resolved:>4}/{len(live_queries)} queries "
            f"({resolved / len(live_queries):.0%}), "
            f"correct entity for {correct}"
        )

    print("Matching live showtimes queries against the movie database:")
    evaluate(baseline_matcher, "canonical names only")
    evaluate(expanded_matcher, "with mined synonyms")

    print("\nA few worked examples with the expanded dictionary:")
    for query, _expected in live_queries[:6]:
        match = expanded_matcher.match(query)
        target = (
            world.catalog[next(iter(match.entity_ids))].canonical_name
            if match.matched
            else "(no match)"
        )
        print(f"  {query!r:<50} -> {target!r}  (rest: {match.remainder!r})")


if __name__ == "__main__":
    main()
