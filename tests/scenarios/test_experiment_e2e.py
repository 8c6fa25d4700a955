"""End-to-end tests for the experiment runner and the `scenario` CLI.

These drive the real path: compile the scenario's catalog, boot a real
daemon (including the ``--procs 2 --mmap`` worker-group shape), push the
workload over the wire, and check the written result JSON — the same
artifacts CI's scenario-smoke job uploads.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.scenarios import (
    Experiment,
    NAMED_SCENARIOS,
    compare_results,
    get_scenario,
    load_result,
    render_comparison,
    write_result,
)
from repro.scenarios.experiment import RESULT_FORMAT, RESULT_KIND, _percentile
from repro.server import reuse_port_supported
from repro.server.metrics import LatencyHistogram

needs_reuse_port = pytest.mark.skipif(
    not reuse_port_supported(), reason="SO_REUSEPORT unavailable on this platform"
)


def run_scenario_cli(tmp_path, *args: str) -> tuple[int, dict]:
    output = tmp_path / "result.json"
    code = main(
        [
            "scenario", "run", *args,
            "--output", str(output),
            "--workdir", str(tmp_path / "work"),
        ]
    )
    return code, load_result(output)


class TestDeltaStormRegression:
    @needs_reuse_port
    def test_delta_storm_against_procs2_mmap_daemon(self, tmp_path):
        """The PR's pinned regression: churn under a multi-process mmap group.

        ``scenario run delta-storm`` against a ``--procs 2 --mmap`` daemon
        must finish with zero errors, at least one delta actually applied
        (visible in the scraped ``/stats``), and a well-formed result JSON.
        """
        code, result = run_scenario_cli(
            tmp_path, "delta-storm", "--seed", "3", "--duration", "4",
            "--procs", "2", "--mmap",
        )
        assert code == 0
        summary = result["summary"]
        assert summary["errors"] == 0
        assert summary["deltas_published"] >= 1
        assert summary["server"]["deltas_applied"] >= 1
        assert summary["server"]["deltas_skipped"] == 0
        assert summary["deltas_caught_up"] is True
        # The served artifact ended on the last published generation.
        assert summary["server"]["artifact_version"] == (
            f"gen-{summary['deltas_published']}"
        )
        assert result["run"] == {
            **result["run"], "procs": 2, "mmap": True,
        }

    def test_delta_storm_single_process(self, tmp_path):
        scenario = get_scenario("delta-storm").with_overrides(duration_s=2.5, seed=11)
        result = Experiment(scenario, workdir=tmp_path / "work").run()
        summary = result["summary"]
        assert summary["errors"] == 0
        assert summary["deltas_published"] >= 1
        assert summary["server"]["deltas_applied"] == summary["deltas_published"]


class TestResultSchema:
    @pytest.fixture(scope="class")
    def result(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("experiment")
        scenario = get_scenario("cold-cache").with_overrides(
            duration_s=0.5, seed=21, entities=120
        )
        payload = Experiment(scenario, workdir=base / "work").run()
        write_result(payload, base / "cold.json")
        return load_result(base / "cold.json")

    def test_versioned_envelope(self, result):
        assert result["kind"] == RESULT_KIND
        assert result["format"] == RESULT_FORMAT
        assert result["scenario"]["name"] == "cold-cache"

    def test_per_repeat_metrics(self, result):
        assert len(result["repeats"]) == 3  # cold-cache repeats 3x
        for repeat in result["repeats"]:
            assert repeat["requests"] > 0
            assert repeat["errors"] == 0
            latency = repeat["latency_ms"]
            assert set(latency) == {"match", "resolve"}
            for summary in latency.values():
                assert {"count", "p50_ms", "p90_ms", "p99_ms", "max_ms"} == set(summary)
                if summary["count"]:
                    assert 0 < summary["p50_ms"] <= summary["p99_ms"] <= summary["max_ms"]

    def test_cold_start_reloads_before_every_repeat(self, result):
        # One server-side reload per repeat is the cold-cache contract.
        assert result["summary"]["server"]["reloads"] >= 3

    def test_workload_fingerprints_recorded(self, result):
        workload = result["workload"]
        assert len(workload["catalog_sha256"]) == 64
        assert len(workload["query_stream_sha256"]) == 3
        assert len(set(workload["query_stream_sha256"])) == 3  # per-repeat streams

    def test_server_side_histograms_scraped(self, result):
        server = result["summary"]["server"]
        assert server["requests"].get("match", 0) > 0
        assert "match" in server["latency"]

    def test_load_result_rejects_malformed(self, tmp_path, result):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "nope"}), encoding="utf-8")
        with pytest.raises(ValueError, match="not a scenario result"):
            load_result(bad)
        wrong_format = dict(result, format=999)
        bad.write_text(json.dumps(wrong_format), encoding="utf-8")
        with pytest.raises(ValueError, match="unsupported result format"):
            load_result(bad)


class TestResultPercentiles:
    """A result file's client-side pNN and the daemon's ``/stats`` pNN are
    read side by side, so both must pick the same sample."""

    @pytest.mark.parametrize(
        ("count", "q", "rank"),  # 1-based nearest rank, ceil(q * count)
        [
            (1, 0.5, 1), (1, 0.9, 1), (1, 0.99, 1),
            (2, 0.5, 1), (2, 0.9, 2), (2, 0.99, 2),
            (5, 0.5, 3), (5, 0.9, 5), (5, 0.99, 5),
            (50, 0.5, 25), (50, 0.9, 45), (50, 0.99, 50),
            (150, 0.5, 75), (150, 0.9, 135), (150, 0.99, 149),
        ],
    )
    def test_same_rank_as_the_daemon_histogram(self, count, q, rank):
        assert _percentile([float(i) for i in range(1, count + 1)], q) == rank

        # The histogram only reports bucket bounds, so its rank is read off
        # a two-valued sample: it must land on the slow value when fewer
        # than `rank` samples are fast, and on the fast one from `rank` on.
        fast, slow = 0.001, 1.0

        def histogram_quantile(fast_samples: int) -> float:
            histogram = LatencyHistogram()
            for i in range(count):
                histogram.record(fast if i < fast_samples else slow)
            return histogram.quantile(q)

        assert histogram_quantile(rank - 1) == slow
        assert histogram_quantile(rank) < slow


class TestDeterminismAndCompare:
    def test_same_seed_runs_share_workload_fingerprints(self, tmp_path):
        """The acceptance pin: same seed twice => identical query streams."""
        results = []
        for attempt in ("a", "b"):
            scenario = get_scenario("flash-crowd").with_overrides(
                seed=7, duration_s=0.5, entities=100
            )
            results.append(
                Experiment(scenario, workdir=tmp_path / f"work-{attempt}").run()
            )
        first, second = results
        assert first["workload"]["catalog_sha256"] == second["workload"]["catalog_sha256"]
        assert (
            first["workload"]["query_stream_sha256"]
            == second["workload"]["query_stream_sha256"]
        )
        comparison = compare_results(first, second)
        assert comparison["same_scenario"] is True
        assert comparison["same_workload"] is True
        assert comparison["metrics"]["errors"] == {
            "a": 0, "b": 0, "delta": 0, "ratio": None,
        }
        rendered = render_comparison(comparison)
        assert "same workload: yes" in rendered
        assert "throughput_rps" in rendered

    def test_compare_flags_different_scenarios(self, tmp_path):
        runs = {}
        for name, seed in (("flash-crowd", 7), ("flash-crowd", 8)):
            scenario = get_scenario(name).with_overrides(
                seed=seed, duration_s=0.4, entities=60
            )
            runs[seed] = Experiment(
                scenario, workdir=tmp_path / f"work-{seed}"
            ).run()
        comparison = compare_results(runs[7], runs[8])
        assert comparison["same_scenario"] is False  # seeds differ in the spec
        assert comparison["same_workload"] is False

    def test_compare_cli_round_trips_result_files(self, tmp_path, capsys):
        scenario = get_scenario("cold-cache").with_overrides(
            duration_s=0.4, seed=13, entities=60, repeats=1
        )
        result = Experiment(scenario, workdir=tmp_path / "work").run()
        path_a = write_result(result, tmp_path / "a.json")
        path_b = write_result(result, tmp_path / "b.json")
        assert main(["scenario", "compare", str(path_a), str(path_b)]) == 0
        out = capsys.readouterr().out
        assert "same workload: yes" in out
        assert main(
            ["scenario", "compare", str(path_a), str(path_b), "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "scenario-comparison"
        assert payload["same_scenario"] is True


class TestNamedScenariosComplete:
    @pytest.mark.parametrize("name", sorted(NAMED_SCENARIOS))
    def test_named_scenario_completes_against_live_daemon(self, name, tmp_path):
        """Every library scenario must run clean end to end (short burst)."""
        scenario = get_scenario(name).with_overrides(
            duration_s=0.4, entities=80, repeats=1
        )
        result = Experiment(scenario, workdir=tmp_path / "work").run()
        assert result["summary"]["errors"] == 0
        assert result["summary"]["requests"] > 0


class TestScenarioCli:
    def test_list_names_every_library_entry(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in NAMED_SCENARIOS:
            assert name in out
