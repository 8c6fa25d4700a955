#!/usr/bin/env python3
"""Editorial review of a mined dictionary: why was each candidate kept or cut?

The paper selects synonyms with two thresholds (IPC ≥ β, ICR ≥ γ) and
explains the intuition with a Venn diagram (Figure 1): synonyms, hypernyms,
hyponyms and merely-related queries each leave a characteristic click
footprint.  A team operating this system reviews the dictionary before
shipping it, so this example produces exactly that review sheet:

* for a few entities, every scored candidate with its IPC / ICR evidence,
  the selection decision and the ground-truth relation;
* a summary of ground-truth relation vs. keep/cut decision over the whole
  catalog: Figure 1 as a number, i.e. how well the two thresholds separate
  synonyms from hypernyms, hyponyms and merely-related queries on this data.

Run with::

    python examples/dictionary_review.py
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core import MinerConfig, SynonymMiner
from repro.eval import GroundTruthOracle
from repro.simulation import WorldConfig, build_world


def main() -> None:
    print("Building the toy world and scoring every candidate...")
    world = build_world(WorldConfig.toy())
    # Thresholds fully open: we want every scored candidate, then we show
    # what the paper's operating point would keep.
    miner = SynonymMiner(
        click_log=world.click_log,
        search_log=world.search_log,
        config=MinerConfig(ipc_threshold=0, icr_threshold=0.0),
    )
    scored = miner.mine(world.canonical_queries())
    kept = miner.reselect(scored, MinerConfig())

    oracle = GroundTruthOracle(world.catalog, world.alias_table)

    def truth_of(query: str, canonical: str) -> str:
        relation = oracle.relation(query, canonical)
        return relation.value if relation is not None else "unrecorded"

    print("\nReview sheet (first 3 entities):")
    for entry in list(scored)[:3]:
        selected = set(kept[entry.canonical].synonyms)
        print(f"\n  {entry.canonical!r}")
        for candidate in entry.candidates[:8]:
            decision = "KEEP" if candidate.query in selected else "cut "
            print(
                f"    [{decision}] {candidate.query!r:<48} "
                f"IPC={candidate.ipc:<3} ICR={candidate.icr:.2f} "
                f"truth={truth_of(candidate.query, entry.canonical)}"
            )

    print("\nGround-truth relation vs. the operating point's decision, all candidates:")
    decisions: Counter[tuple[str, str]] = Counter()
    for entry in scored:
        selected = set(kept[entry.canonical].synonyms)
        for candidate in entry.candidates:
            decision = "keep" if candidate.query in selected else "cut"
            decisions[(truth_of(candidate.query, entry.canonical), decision)] += 1
    print(f"    {'truth':<18}{'keep':>8}{'cut':>8}")
    for truth_label in sorted({truth_label for truth_label, _decision in decisions}):
        keep, cut = decisions[(truth_label, "keep")], decisions[(truth_label, "cut")]
        print(f"    {truth_label:<18}{keep:>8}{cut:>8}")


if __name__ == "__main__":
    main()
