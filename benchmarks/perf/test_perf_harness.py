"""Harness tests for ``benchmarks.perf`` — structure only, no timing assertions."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.matching.matcher import QueryMatcher
from repro.scenarios.workload import Request
from repro.serving.artifact import SynonymArtifact

from benchmarks.perf.harness import run_workload
from benchmarks.perf.layers import TracedArtifact, Tracer
from benchmarks.perf.metrics import END_TO_END, PER_LAYER
from benchmarks.perf.oracle import Oracle, check_response
from benchmarks.perf.report import (
    append_ledger,
    build_result,
    compare,
    load_result,
    render_record,
    selfcheck_rows,
    write_json,
)
from benchmarks.perf.serving import build_generations
from benchmarks.perf.stats import self_times, spread, supported_percentile, tail_percentile
from benchmarks.perf.workloads import WORKLOADS, build_serving_inputs

_BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


class TestPercentileRule:
    @pytest.mark.parametrize(
        ("count", "expected"), [(2000, 99), (1000, 99), (999, 95), (150, 90), (50, 75), (20, 50)]
    )
    def test_highest_percentile_with_ten_samples_beyond(self, count, expected):
        assert supported_percentile(count) == expected

    def test_tail_percentile_reports_the_percentile_used(self):
        value, used = tail_percentile([float(i) for i in range(1, 201)])
        assert used == 95
        assert value == 190.0

    def test_spread_is_iqr_over_median(self):
        assert spread([1.0]) == 0.0
        assert spread([10.0, 10.0, 10.0, 10.0]) == 0.0
        assert spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(0.3)


class TestSpanSelfTime:
    def test_nested_children(self):
        spans = [
            ("request", 0.0, 10.0, -1, 0),
            ("handle", 1.0, 9.0, 0, 0),
            ("match", 2.0, 6.0, 1, 0),
            ("lookup", 3.0, 4.0, 2, 0),
        ]
        assert self_times(spans) == [2.0, 4.0, 3.0, 1.0]

    def test_overlapping_children_are_not_subtracted_twice(self):
        spans = [
            ("parent", 0.0, 10.0, -1, 0),
            ("a", 1.0, 5.0, 0, 0),
            ("b", 3.0, 7.0, 0, 0),  # overlaps a on [3, 5]
            ("c", 9.0, 12.0, 0, 0),  # runs past the parent: clipped at 10
        ]
        assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)

    def test_tracer_links_parents(self):
        tracer = Tracer()
        outer = tracer.begin("outer")
        tracer.wrap("inner", lambda: None)()
        tracer.end(outer)
        (outer_span, inner_span) = tracer.finished()
        assert outer_span[3] == -1 and inner_span[3] == 0
        assert outer_span[1] <= inner_span[1] <= inner_span[2] <= outer_span[2]


class TestInputs:
    def test_request_list_is_a_function_of_the_seed(self):
        workload = WORKLOADS["serve-typo-tail"].smoke()
        one = build_serving_inputs(workload, 5)
        two = build_serving_inputs(workload, 5)
        other = build_serving_inputs(workload, 6)
        assert one.requests == two.requests
        assert one.requests_sha256 == two.requests_sha256
        assert one.catalog_sha256 == two.catalog_sha256
        assert one.requests_sha256 != other.requests_sha256
        assert len(one.requests) == workload.requests
        assert len(one.rows) == workload.deltas + 1

    def test_proxy_index_preserves_matcher_results(self, tmp_path):
        workload = WORKLOADS["serve-typo-tail"].smoke()
        inputs = build_serving_inputs(workload, 3)
        build_generations(inputs, tmp_path, prime_all=False)
        path = tmp_path / "build" / "catalog.synart"
        proxy = TracedArtifact.load(path)
        proxy.tracer = Tracer()
        plain = QueryMatcher(SynonymArtifact.load(path))
        traced = QueryMatcher(proxy)
        queries = [query for request in inputs.requests for query in request.queries]
        assert [traced.match(query) for query in queries] == [
            plain.match(query) for query in queries
        ]
        names = {span[0] for span in proxy.tracer.finished()}
        assert names == {"serving.lookup", "serving.shortlist"}
        assert proxy.shortlist_sizes

    def test_oracle_check_catches_a_corrupted_payload(self):
        inputs = build_serving_inputs(WORKLOADS["serve-head-warm"].smoke(), 2)
        oracle = Oracle.from_rows(inputs.rows[0])
        alias = inputs.catalog.aliases[0]
        single = Request("match", (alias,))
        good = oracle.expected("match", alias)
        assert good["matched"]
        assert check_response(single, good, [oracle])
        assert not check_response(single, {**good, "entities": ["someone else"]}, [oracle])
        assert not check_response(single, {**good, "score": 0.5}, [oracle])
        batch = Request("resolve", (alias, "zzqx 000001 unmatched"))
        answers = [oracle.expected("resolve", query) for query in batch.queries]
        assert check_response(batch, answers, [oracle])
        assert not check_response(batch, answers[:1], [oracle])
        assert not check_response(batch, answers[::-1], [oracle])


class TestBenchmarkJson:
    def test_manifest_matches_the_package(self):
        manifest = json.loads(_BENCHMARK_JSON.read_text(encoding="utf-8"))
        assert set(manifest) == {
            "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
        }  # fmt: skip
        assert manifest["paths"] == ["benchmarks/perf"]
        assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
        assert all(w["why"] == WORKLOADS[w["name"]].why for w in manifest["workloads"])
        assert manifest["end_to_end"] == [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ]
        assert manifest["per_layer"] == [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ]
        assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in manifest["end_to_end"])


@pytest.fixture(scope="module")
def smoke_records(tmp_path_factory):
    """One smoke repeat of all four workloads; the first one traced too."""
    work_root = tmp_path_factory.mktemp("perf-work")
    records = []
    for index, workload in enumerate(WORKLOADS.values()):
        record, spans = run_workload(
            workload.smoke(), 1, repeats=1, traced=index == 0, work_root=work_root
        )
        assert bool(spans) == (index == 0)
        records.append(record)
    assert not list(work_root.iterdir()), "scratch directories must be removed"
    return records


class TestSmokeRun:
    def test_every_workload_answers_correctly(self, smoke_records):
        assert [record["workload"] for record in smoke_records] == list(WORKLOADS)
        for record in smoke_records:
            assert record["failed"] == 0 and record["error_rate"] == 0.0
            assert record["sent"] == record["succeeded"] > 200

    def test_every_end_to_end_metric_is_reported(self, smoke_records):
        for record in smoke_records:
            for metric in END_TO_END:
                entry = record["metrics"][metric.name]
                assert entry["unit"] == metric.unit
                assert entry["value"] > 0
                assert entry["repeats"] and entry["spread"] >= 0.0
                timed = metric.name not in ("server_rss_mb", "artifact_bytes_per_entry")
                assert ("raw_repeats" in entry) == timed

    def test_traced_run_reports_every_layer_metric(self, smoke_records):
        traced = smoke_records[0]
        for metric in PER_LAYER:
            assert metric.name in traced["metrics"], metric.name
        assert traced["metrics"]["trace.overhead_ratio"]["value"] > 0
        assert "server.handle" in traced["self_us_per_request"]
        metrics = traced["metrics"]
        itemised = (
            metrics["client.encode_us"]["value"]
            + metrics["client.decode_us"]["value"]
            + metrics["server.hist_match_p50_ms"]["value"] * 1e3
            + metrics["client.unattributed_us"]["value"]
        )
        assert itemised == pytest.approx(metrics["match_p50_ms"]["raw_value"] * 1e3)
        assert all(metric.name not in smoke_records[1]["metrics"] for metric in PER_LAYER)

    def test_result_record_schema_and_compare(self, smoke_records, tmp_path):
        result = build_result(smoke_records, seed=1, pinned_cpu=None)
        path = tmp_path / "result.json"
        write_json(result, path)
        loaded = load_result(path)
        assert {"git_sha", "seed", "nproc", "python", "pinned_cpu"} <= set(loaded)
        record = loaded["workloads"]["serve-delta-churn"]
        assert set(record["fingerprint"]) == {
            "requests_sha256", "catalog_sha256", "offline_logs_sha256"
        }  # fmt: skip
        assert record["metrics"]["match_p50_ms"]["samples"] > 0
        assert record["metrics"]["delta_visible_ms"]["samples"] == 2
        assert any(line.startswith("serve-delta-churn match_p50_ms ") for line in render_record(record))

        lines, regressions = compare(loaded, loaded)
        assert regressions == 0
        assert sum("same workload: yes" in line for line in lines) == len(WORKLOADS)
        verdicts = [line for line in lines if line.startswith("  ")]
        assert verdicts and all(
            line.endswith("no movement") or "unresolved" in line for line in verdicts
        )
        table, failing = selfcheck_rows(smoke_records, smoke_records[::-1])
        assert len(table) == 1 + len(WORKLOADS) * len(END_TO_END)
        assert all("/" in name for name in failing)

    def test_compare_names_a_regression_and_the_layer(self, smoke_records):
        result = build_result(smoke_records, seed=1, pinned_cpu=None)
        slower = json.loads(json.dumps(result))
        metrics = slower["workloads"]["serve-head-warm"]["metrics"]
        metrics["match_p50_ms"]["value"] *= 2.0
        metrics["server.handle_match_us"]["value"] *= 3.0
        for side in (result, slower):  # one smoke repeat has no spread to hide behind
            side["workloads"]["serve-head-warm"]["metrics"]["match_p50_ms"]["spread"] = 0.01
        lines, regressions = compare(result, slower)
        assert regressions == 1
        head = lines.index("serve-head-warm: same workload: yes")
        at = next(i for i, line in enumerate(lines) if i > head and "match_p50_ms" in line)
        assert "regressed by 100.0%" in lines[at]
        assert "server.handle_match_us" in lines[at + 1]

    def test_ledger_appends_rows(self, smoke_records, tmp_path):
        result = build_result(smoke_records, seed=1, pinned_cpu=None)
        for _ in range(2):
            path = append_ledger(result, smoke_records[0], results_dir=tmp_path)
        ledger = json.loads(path.read_text(encoding="utf-8"))
        assert path.name == "BENCH_serve-head-warm.json"
        assert len(ledger["rows"]) == 2
        assert ledger["rows"][0]["metrics"]["match_p50_ms"][0] > 0
