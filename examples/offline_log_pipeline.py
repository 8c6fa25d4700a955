#!/usr/bin/env python3
"""An operational offline pipeline: logs on disk → mined dictionary → artifact.

The previous examples build their logs in memory.  Production deployments
of the paper's method are batch jobs over log files, so this example shows
the file-backed path end to end:

1. generate a world and dump Search Data / Click Data to JSONL (the shape a
   log-delivery pipeline would hand you);
2. read the JSONL dumps back into a ``SearchLog`` / ``ClickLog``;
3. mine synonyms *from the loaded logs only*;
4. publish the dictionary as a compiled serving artifact; and
5. ingest a fresh day of clicks, refresh incrementally and publish the
   change as a **delta sidecar** — the bandwidth-proportional-to-change
   path a production publisher would run on every refresh.

Run with::

    python examples/offline_log_pipeline.py [workdir]
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.clicklog.log import ClickLog, SearchLog
from repro.clicklog.records import ClickRecord, SearchRecord
from repro.core import MinerConfig
from repro.core.incremental import IncrementalSynonymMiner
from repro.serving.delta import delta_path_for
from repro.simulation import WorldConfig, build_world
from repro.storage.jsonl import read_jsonl_as, write_jsonl


def main() -> None:
    workdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp(prefix="repro-logs-"))
    workdir.mkdir(parents=True, exist_ok=True)
    search_path = workdir / "search_data.jsonl"
    click_path = workdir / "click_data.jsonl"

    print("1. Generating logs and dumping them to JSONL...")
    world = build_world(WorldConfig.toy())
    search_rows = write_jsonl(search_path, world.search_log.iter_records())
    click_rows = write_jsonl(click_path, world.click_log.iter_records())
    print(f"   {search_rows} search tuples -> {search_path}")
    print(f"   {click_rows} click tuples  -> {click_path}")

    print("\n2. Loading the JSONL dumps into SearchLog / ClickLog...")
    search_log = SearchLog(read_jsonl_as(search_path, SearchRecord))
    click_log = ClickLog(read_jsonl_as(click_path, ClickRecord))
    print(
        f"   search log: {len(search_log)} tuples, click log: {len(click_log)} tuples, "
        f"{len(click_log.queries())} distinct click queries"
    )

    print("\n3. Mining synonyms from the loaded logs...")
    incremental = IncrementalSynonymMiner(
        search_log=search_log, click_log=click_log, config=MinerConfig()
    )
    incremental.track(world.canonical_queries())
    incremental.refresh()
    result = incremental.result
    print(f"   {result.synonym_count} synonyms for {result.hit_count} entities")
    for canonical in world.canonical_queries()[:3]:
        rendered = ", ".join(
            f"{c.query!r} (ipc={c.ipc}, icr={c.icr:.2f})" for c in result[canonical].selected[:3]
        )
        print(f"   {canonical!r}\n      -> {rendered or '(no synonyms)'}")

    print("\n4. Publishing the dictionary as a compiled serving artifact...")
    artifact_path = workdir / "dictionary.synart"
    manifest = incremental.publish(world.catalog, artifact_path)
    full_bytes = artifact_path.stat().st_size
    print(f"   {manifest.counts['entries']} entries, version {manifest.version} "
          f"-> {artifact_path} [{full_bytes} bytes]")

    print("\n5. A new day of clicks arrives: refresh + delta publish...")
    hot_value = world.canonical_queries()[0]
    hot_url = incremental.search_log.top_urls(hot_value, k=1)[0]
    incremental.ingest_clicks([ClickRecord(hot_value, hot_url, 40)])
    refreshed = incremental.refresh()
    delta_manifest = incremental.publish(world.catalog, artifact_path, delta=True)
    sidecar = delta_path_for(artifact_path)
    delta_bytes = sidecar.stat().st_size
    print(f"   re-mined {len(refreshed)} of {len(world.canonical_queries())} entities")
    print(f"   delta {delta_manifest.version} "
          f"({delta_manifest.counts['changed_entities']} changed, "
          f"{delta_manifest.counts.get('prior_updates', 0)} prior updates) "
          f"-> {sidecar} [{delta_bytes} bytes, {full_bytes // max(delta_bytes, 1)}x "
          f"smaller than the full artifact]")
    print("   a server watching the artifact applies the sidecar in memory "
          "(see README 'Delta publishing')")

    print(f"\nArtifacts kept in {workdir}")


if __name__ == "__main__":
    main()
