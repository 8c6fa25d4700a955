#!/usr/bin/env python3
"""Quickstart: mine entity synonyms from simulated Web logs in one page.

Builds a small simulated world (entities, web pages, search and click
logs), runs the paper's two-phase miner at its recommended operating point
(IPC ≥ 4, ICR ≥ 0.1), and prints the expanded synonym set of a few
entities together with the IPC / ICR evidence behind each synonym.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core import MinerConfig, SynonymMiner
from repro.eval import GroundTruthOracle, precision, weighted_precision
from repro.simulation import WorldConfig, build_world


def main() -> None:
    print("Building a toy simulated world (20 movies)...")
    world = build_world(WorldConfig.toy())
    summary = world.summary()
    print(
        f"  {summary['entities']} entities, {summary['pages']} web pages, "
        f"{summary['click_volume']} clicks over "
        f"{summary['distinct_click_queries']} distinct queries\n"
    )

    print("Mining synonyms (candidate generation + IPC/ICR selection)...")
    miner = SynonymMiner(
        click_log=world.click_log,
        search_log=world.search_log,
        config=MinerConfig(),
    )
    result = miner.mine(world.canonical_queries())

    oracle = GroundTruthOracle(world.catalog, world.alias_table)
    print(
        f"  {result.hit_count}/{len(result)} entities expanded, "
        f"{result.synonym_count} synonyms mined, "
        f"precision {precision(result, oracle):.0%}, "
        f"weighted precision {weighted_precision(result, oracle, world.click_log):.0%}\n"
    )

    print("Sample expansions:")
    for entry in list(result)[:5]:
        print(f"  {entry.canonical!r}")
        for candidate in entry.selected[:4]:
            truth = "true synonym" if oracle.is_true_synonym(candidate.query, entry.canonical) else "not a synonym"
            print(
                f"    - {candidate.query!r:<45} "
                f"IPC={candidate.ipc:<3} ICR={candidate.icr:.2f} "
                f"clicks={candidate.clicks:<5} [{truth}]"
            )
        print()


if __name__ == "__main__":
    main()
