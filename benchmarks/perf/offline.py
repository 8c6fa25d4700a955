"""The offline half: logs on disk -> mined -> compiled -> published -> matched.

Each repeat runs the batch pipeline from the JSONL files to a first
answered match, then one incremental refresh (dirty clicks -> ``refresh``
-> delta sidecar durable).  Every stage call is timed, so the same
repeats give the end-to-end metrics and the per-stage layer rows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.clicklog.log import ClickLog, SearchLog
from repro.clicklog.records import ClickRecord, SearchRecord
from repro.core.batch import BatchMiner
from repro.core.config import MinerConfig
from repro.core.incremental import IncrementalSynonymMiner
from repro.core.pipeline import SynonymMiner
from repro.matching.dictionary import SynonymDictionary
from repro.serving.artifact import SynonymArtifact, compile_dictionary
from repro.serving.delta import DictionaryDelta, delta_path_for
from repro.serving.service import MatchService
from repro.storage.jsonl import read_jsonl

from benchmarks.perf.protocol import cpu_probe_s, cpu_slowdown, record_timed, repeat_until
from benchmarks.perf.stats import median
from benchmarks.perf.workloads import OfflineInputs

__all__ = ["OfflineResult", "run_offline"]

COLD_STARTS_PER_REPEAT = 9
_FIRST_QUERY = "alias 1 of 0007"


@dataclass
class OfflineResult:
    series: dict[str, list[float]] = field(default_factory=dict)
    extras: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    entries: int = 0
    artifact_bytes: int = 0


def _load_logs(inputs: OfflineInputs) -> tuple[SearchLog, ClickLog, float]:
    """JSONL -> logs; returns the raw ``read_jsonl`` share in ms as well."""
    began = time.perf_counter()
    search_rows = list(read_jsonl(inputs.search_path))
    click_rows = list(read_jsonl(inputs.clicks_path))
    read_ms = (time.perf_counter() - began) * 1e3
    search_log = SearchLog(SearchRecord(**row) for row in search_rows)
    click_log = ClickLog(ClickRecord(**row) for row in click_rows)
    return search_log, click_log, read_ms


def run_offline(
    inputs: OfflineInputs, workdir: Path, *, repeats: int | None, budget_s: float
) -> OfflineResult:
    result = OfflineResult()
    config = MinerConfig()
    path = workdir / "mined.synart"
    entities = len(inputs.values)

    # Oracle and incremental base, once, untimed: the serial miner's result
    # is what the batch run must reproduce, and the incremental miner needs
    # a fully mined, fully published base to refresh against.
    search_log, click_log, _ = _load_logs(inputs)
    began = time.perf_counter()
    serial = SynonymMiner(click_log=click_log, search_log=search_log, config=config).mine(
        inputs.values
    )
    result.extras["core.mine_serial_entities_per_s"] = entities / (time.perf_counter() - began)
    incremental = IncrementalSynonymMiner(
        search_log=search_log, click_log=click_log, config=config, batch_workers=2
    )
    incremental.track(inputs.values)
    incremental.refresh()
    incremental_path = workdir / "incremental.synart"
    incremental.publish(inputs.catalog, incremental_path)
    applied = SynonymArtifact.load(incremental_path)
    sidecar = delta_path_for(incremental_path)

    series = result.series

    def one_repeat() -> None:
        nonlocal applied
        probe_before = cpu_probe_s()
        started = time.perf_counter()
        logs_search, logs_click, read_ms = _load_logs(inputs)
        loaded = time.perf_counter()
        miner = BatchMiner(
            click_log=logs_click, search_log=logs_search, config=config,
            workers=2, backend="thread",
        )  # fmt: skip
        indexed = time.perf_counter()
        mined = miner.mine(inputs.values)
        mined_at = time.perf_counter()
        dictionary = SynonymDictionary.from_mining_result(mined, inputs.catalog)
        built = time.perf_counter()
        manifest = compile_dictionary(
            dictionary, path, version="mined", click_log=logs_click,
            config_fingerprint=config.fingerprint(),
        )  # fmt: skip
        compiled = time.perf_counter()
        first = MatchService(path).match(_FIRST_QUERY)
        answered = time.perf_counter()

        cold: list[float] = []
        for _ in range(COLD_STARTS_PER_REPEAT):
            began = time.perf_counter()
            MatchService(path).match(_FIRST_QUERY)
            cold.append((time.perf_counter() - began) * 1e3)

        # The same seeded slice is dirtied again every repeat, so each
        # refresh re-mines the same entities and ships the same-shaped delta.
        began = time.perf_counter()
        incremental.ingest_clicks(inputs.dirty_clicks)
        refreshed = incremental.refresh()
        refreshed_at = time.perf_counter()
        incremental.publish(inputs.catalog, incremental_path, delta=True)
        durable = time.perf_counter()
        slowdown = cpu_slowdown(probe_before)
        for name, value in (
            ("offline_total_s", answered - started),
            ("clicklog.load_ms", (loaded - started) * 1e3),
            ("storage.jsonl_read_ms", read_ms),
            ("core.index_build_ms", (indexed - loaded) * 1e3),
            ("matching.dictionary_build_ms", (built - mined_at) * 1e3),
            ("serving.compile_ms", (compiled - built) * 1e3),
            ("cold_start_ms", median(cold)),
            ("incremental_refresh_ms", (durable - began) * 1e3),
            ("core.refresh_ms", (refreshed_at - began) * 1e3),
            ("core.publish_delta_ms", (durable - refreshed_at) * 1e3),
        ):
            record_timed(series, name, value, slowdown)
        record_timed(
            series, "mine_entities_per_s", entities / (mined_at - indexed), slowdown, rate=True
        )

        # Checks (untimed): batch == serial, first answer matched, the
        # refresh touched exactly the dirtied slice, the delta chains.
        applied = applied.apply_delta(DictionaryDelta.load(sidecar))
        result.attempted += 3
        result.failed += mined.per_entity != serial.per_entity
        result.failed += not first.matched
        result.failed += len(refreshed) != len(inputs.dirty_clicks)
        result.entries = int(manifest.counts["entries"])
        stats = miner.last_run_stats
        assert stats is not None
        result.extras["core.profile_cache_hit_ratio"] = stats.cache.hit_rate
        result.extras["core.candidates_per_entity"] = (
            sum(len(entry.candidates) for entry in mined) / entities
        )
        result.extras["core.selected_per_entity"] = (
            sum(len(entry.selected) for entry in mined) / entities
        )

    repeat_until(one_repeat, repeats=repeats, budget_s=budget_s)

    # The chain of applied deltas must equal a from-scratch compile of the
    # incremental miner's final state, content hash for content hash.
    reference = compile_dictionary(
        SynonymDictionary.from_mining_result(incremental.result, inputs.catalog),
        workdir / "reference.synart",
        version=applied.manifest.version,
        click_log=incremental.click_log,
        config_fingerprint=config.fingerprint(),
    )
    result.attempted += 1
    result.failed += applied.manifest.content_hash != reference.content_hash
    result.artifact_bytes = path.stat().st_size
    return result
