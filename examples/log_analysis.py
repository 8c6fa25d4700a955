#!/usr/bin/env python3
"""Analyse the query log the miner works from, and how log volume matters.

The paper's method is data-driven: its behaviour depends on distributional
properties of the query/click log (heavy-tailed query frequency, rare
canonical strings, months of accumulated traffic).  This example surfaces
those properties for the simulated movies log:

1. descriptive statistics of the click log (volume, skew, singleton share);
2. the head of the query-frequency distribution with each query's relation
   to the catalog (canonical / true synonym / other);
3. a month-by-month view: how hit ratio, synonym count and coverage grow as
   more months of logs are accumulated (the implicit "five months" choice
   of the paper).

Run with::

    python examples/log_analysis.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.clicklog import compute_stats, head_share, rank_frequency
from repro.eval import prefix_worlds, run_quality
from repro.simulation import ScenarioConfig, build_world


def main() -> None:
    print("Building the movies world (100 titles)...")
    world = build_world(ScenarioConfig.movies(session_count=30_000))

    print("\n1. Click-log statistics")
    stats = compute_stats(world.click_log)
    for key, value in stats.as_dict().items():
        print(f"   {key:<26} {value}")
    print(f"   {'top-10% query share':<26} {head_share(world.click_log, head_fraction=0.1):.1%}")

    print("\n2. Most frequent queries and their relation to the catalog")
    canonical_set = set(world.canonical_queries())
    for query, volume in rank_frequency(world.click_log, top=12):
        if query in canonical_set:
            relation = "canonical"
        else:
            relation = "other"
            for entity in world.catalog:
                kind = world.alias_table.kind_of(query, entity.entity_id)
                if kind is not None:
                    relation = kind.value
                    break
        print(f"   {volume:>7} clicks  {query!r:<50} [{relation}]")

    print("\n3. Mining quality as months of logs accumulate")
    print(f"   {'prefix':<18} {'clicks':>9} {'hit ratio':>10} {'synonyms':>9} {'coverage':>10}")
    for row in run_quality(prefix_worlds(world)):  # sorted by world: month order
        prefix = row.world.removeprefix("movies ")
        print(
            f"   {prefix:<18} {row.click_volume:>9} {row.hit_ratio:>9.1%} "
            f"{row.synonyms:>9} {row.coverage_increase:>9.1%}"
        )


if __name__ == "__main__":
    main()
