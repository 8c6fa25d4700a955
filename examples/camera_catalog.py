#!/usr/bin/env python3
"""Product search over a camera catalog: the long-tail D2 world.

The paper's second dataset is 882 canonical camera names.  Cameras are the
hard case: verbose canonical strings, regional marketing codenames that
share no tokens with the model name ("Digital Rebel XT" vs "Canon EOS
350D"), and far less Wikipedia coverage.  This example:

1. builds the cameras world and mines synonyms;
2. compares the miner against the Wikipedia-redirect and random-walk
   baselines on hit ratio and expansion (Table I's cameras rows); and
3. demonstrates matching shopper queries, including codename queries, back
   to catalog entries.

A smaller catalog slice is used by default so the example runs in seconds;
pass ``--full`` for the paper-scale 882 cameras.

Run with::

    python examples/camera_catalog.py [--full]
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core import MinerConfig, SynonymMiner
from repro.eval import render_table1, run_quality
from repro.matching import QueryMatcher, entries_from_mining_result
from repro.serving import SynonymArtifact
from repro.simulation import WorldConfig, build_world


def main() -> None:
    full = "--full" in sys.argv
    entity_count = 882 if full else 200
    sessions = 120_000 if full else 40_000
    print(f"Building the cameras world ({entity_count} models)...")
    world = build_world(
        WorldConfig.cameras(entity_count=entity_count, session_count=sessions)
    )
    print("Mining synonyms and running both baselines...\n")
    print(render_table1(run_quality({"cameras": world})))

    miner = SynonymMiner(
        click_log=world.click_log,
        search_log=world.search_log,
        config=MinerConfig(),
    )
    ours = miner.mine(world.canonical_queries())
    matcher = QueryMatcher(
        SynonymArtifact.from_entries(entries_from_mining_result(ours, world.catalog))
    )

    print("\nShopper queries resolved against the catalog:")
    shown = 0
    for entity in world.catalog:
        codename = entity.attributes.get("codename")
        if not codename or shown >= 5:
            continue
        query = f"{codename.lower()} best price"
        match = matcher.match(query)
        resolved = (
            world.catalog[next(iter(match.entity_ids))].canonical_name
            if match.matched
            else "(no match)"
        )
        marker = "ok " if match.matched and entity.entity_id in match.entity_ids else "MISS"
        print(f"  [{marker}] {query!r:<40} -> {resolved!r}")
        shown += 1

    recovered = 0
    total = 0
    for entity in world.catalog:
        codename = entity.attributes.get("codename")
        if not codename:
            continue
        total += 1
        match = matcher.match(codename.lower())
        if match.matched and entity.entity_id in match.entity_ids:
            recovered += 1
    if total:
        print(
            f"\nCodename aliases resolved to the right model: {recovered}/{total} "
            f"({recovered / total:.0%}) — the case string similarity cannot handle."
        )


if __name__ == "__main__":
    main()
