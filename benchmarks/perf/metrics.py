"""The metric names every later issue uses: unit, direction and bound.

``BENCHMARK.json`` at the repository root carries the same definitions
(``test_perf_harness.py`` checks the two agree).  A bound is the share of
the parent's median by which an end-to-end metric may worsen before a
change counts as a regression; per-layer metrics explain, they do not
gate, so they have none.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["END_TO_END", "PER_LAYER", "Metric"]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float | None = None  # end-to-end only


def _lower(name: str, unit: str, bound: float | None = None) -> Metric:
    return Metric(name, unit, "lower", bound)


def _higher(name: str, unit: str, bound: float | None = None) -> Metric:
    return Metric(name, unit, "higher", bound)


END_TO_END: tuple[Metric, ...] = (
    _lower("setup_s", "s", 0.25),
    _lower("match_p50_ms", "ms", 0.25),
    _lower("resolve_p50_ms", "ms", 0.25),
    _lower("batch16_p50_ms", "ms", 0.25),
    _higher("requests_per_s", "1/s", 0.25),
    _lower("server_cpu_us_per_request", "us", 0.25),
    _lower("server_rss_mb", "MB", 0.10),
    _lower("delta_visible_ms", "ms", 0.25),
    _lower("offline_total_s", "s", 0.25),
    _higher("mine_entities_per_s", "1/s", 0.25),
    _lower("incremental_refresh_ms", "ms", 0.25),
    _lower("cold_start_ms", "ms", 0.25),
    _lower("artifact_bytes_per_entry", "B", 0.01),
)

PER_LAYER: tuple[Metric, ...] = (
    _lower("text.normalize_us", "us"),
    _lower("text.tokenize_us", "us"),
    _lower("text.levenshtein_us", "us"),
    _lower("matching.segment_us", "us"),
    _lower("matching.segment_probes_per_query", "count"),
    _lower("matching.match_exact_us", "us"),
    _lower("matching.match_fuzzy_us", "us"),
    _lower("matching.fuzzy_attempt_share", "ratio"),
    _higher("matching.fuzzy_accept_ratio", "ratio"),
    _lower("matching.shortlist_mean", "count"),
    _lower("matching.resolve_rank_us", "us"),
    _lower("matching.dictionary_build_ms", "ms"),
    _lower("serving.lookup_us", "us"),
    _lower("serving.shortlist_us", "us"),
    _lower("serving.service_hit_us", "us"),
    _lower("serving.service_miss_us", "us"),
    _higher("serving.cache_hit_ratio", "ratio"),
    _lower("serving.compile_ms", "ms"),
    _lower("serving.diff_delta_ms", "ms"),
    _lower("serving.delta_bytes_ratio", "ratio"),
    _lower("serving.load_heap_ms", "ms"),
    _lower("serving.load_mmap_ms", "ms"),
    _lower("serving.apply_delta_heap_ms", "ms"),
    _lower("serving.apply_delta_fold_ms", "ms"),
    _lower("serving.full_reload_ms", "ms"),
    _lower("storage.write_artifact_ms", "ms"),
    _lower("storage.read_artifact_ms", "ms"),
    _lower("storage.jsonl_read_ms", "ms"),
    _lower("server.decode_us", "us"),
    _lower("server.handle_match_us", "us"),
    _lower("server.encode_us", "us"),
    _lower("server.hist_match_p50_ms", "ms"),
    _lower("server.hist_match_p99_ms", "ms"),
    _lower("server.healthz_rtt_us", "us"),
    _lower("client.match_p90_ms", "ms"),
    _lower("client.match_p99_ms", "ms"),
    _lower("client.encode_us", "us"),
    _lower("client.decode_us", "us"),
    _lower("client.cpu_us_per_request", "us"),
    _lower("client.unattributed_us", "us"),
    _lower("clicklog.load_ms", "ms"),
    _lower("core.index_build_ms", "ms"),
    _higher("core.mine_serial_entities_per_s", "1/s"),
    _higher("core.profile_cache_hit_ratio", "ratio"),
    _lower("core.candidates_per_entity", "count"),
    _higher("core.selected_per_entity", "count"),
    _lower("core.refresh_ms", "ms"),
    _lower("core.publish_delta_ms", "ms"),
    _lower("trace.overhead_ratio", "ratio"),
    _lower("bench.cpu_probe_ms", "ms"),
    _lower("bench.http_probe_us", "us"),
)

