"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.storage.jsonl import read_jsonl

RESULTS_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "results"


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self, tmp_path):
        args = build_parser().parse_args(["simulate", "--output", str(tmp_path)])
        assert args.dataset == "toy"
        assert args.command == "simulate"

    def test_mine_thresholds(self, tmp_path):
        args = build_parser().parse_args(
            [
                "mine",
                "--search", "s.jsonl", "--clicks", "c.jsonl", "--values", "v.txt",
                "--output", "out.jsonl", "--ipc", "6", "--icr", "0.4",
            ]
        )
        assert args.ipc == 6 and args.icr == pytest.approx(0.4)

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_server_defaults(self):
        from repro.server.daemon import DEFAULT_PORT

        args = build_parser().parse_args(["server", "--artifact", "d.synart"])
        assert args.command == "server"
        assert args.host == "127.0.0.1"
        assert args.port == DEFAULT_PORT
        assert args.watch_interval == pytest.approx(2.0)
        assert args.max_batch == 1024

    def test_compile_accepts_priors_source(self):
        args = build_parser().parse_args(
            ["compile", "--synonyms", "s.jsonl", "--output", "d.synart",
             "--priors", "clicks.jsonl"]
        )
        assert str(args.priors) == "clicks.jsonl"


class TestEndToEndWorkflow:
    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("cli")

    @pytest.fixture(scope="class")
    def simulated(self, workdir):
        exit_code = main(
            [
                "simulate", "--dataset", "toy", "--entities", "10",
                "--sessions", "3000", "--output", str(workdir / "logs"),
            ]
        )
        assert exit_code == 0
        return workdir / "logs"

    def test_simulate_writes_all_artifacts(self, simulated):
        for name in ("search_data.jsonl", "click_data.jsonl", "catalog.jsonl", "values.txt"):
            assert (simulated / name).exists(), name
        assert len(list(read_jsonl(simulated / "catalog.jsonl"))) == 10

    @pytest.fixture(scope="class")
    def mined(self, simulated, workdir):
        output = workdir / "synonyms.jsonl"
        exit_code = main(
            [
                "mine",
                "--search", str(simulated / "search_data.jsonl"),
                "--clicks", str(simulated / "click_data.jsonl"),
                "--values", str(simulated / "values.txt"),
                "--output", str(output),
                "--ipc", "3", "--icr", "0.1",
            ]
        )
        assert exit_code == 0
        return output

    def test_mine_produces_synonym_rows(self, mined):
        rows = list(read_jsonl(mined))
        assert rows, "expected at least one mined synonym"
        assert {"canonical", "synonym", "ipc", "icr", "clicks"} <= set(rows[0])
        assert all(row["ipc"] >= 3 for row in rows)

    def test_match_resolves_mined_synonym(self, mined, capsys):
        rows = list(read_jsonl(mined))
        query = rows[0]["synonym"]
        exit_code = main(["match", "--synonyms", str(mined), query])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["matched"] is True
        assert rows[0]["canonical"] in payload["entities"]

    def test_match_reports_unmatched_query(self, mined, capsys):
        exit_code = main(["match", "--synonyms", str(mined), "--no-fuzzy", "zzz unmatched zzz"])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["matched"] is False
        assert payload["entities"] == []

    def test_match_reads_queries_from_stdin(self, mined, capsys, monkeypatch):
        import io

        rows = list(read_jsonl(mined))
        monkeypatch.setattr("sys.stdin", io.StringIO(rows[0]["synonym"] + "\n"))
        assert main(["match", "--synonyms", str(mined)]) == 0
        assert json.loads(capsys.readouterr().out.strip())["matched"] is True


class TestExperimentsCLI:
    def test_figure2_output_is_the_committed_table(self, capsys):
        # The table is printed, then a blank line.
        committed = RESULTS_DIR / "figure2_ipc_sweep.txt"
        assert main(["experiments", "--artifact", "figure2"]) == 0
        assert capsys.readouterr().out == committed.read_text(encoding="utf-8") + "\n"


class TestBatchMineCLI:
    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("cli-batch")

    @pytest.fixture(scope="class")
    def simulated(self, workdir):
        assert main(
            [
                "simulate", "--dataset", "toy", "--entities", "10",
                "--sessions", "3000", "--output", str(workdir / "logs"),
            ]
        ) == 0
        return workdir / "logs"

    def _mine(self, simulated, output, *extra):
        args = [
            "mine",
            "--search", str(simulated / "search_data.jsonl"),
            "--clicks", str(simulated / "click_data.jsonl"),
            "--values", str(simulated / "values.txt"),
            "--output", str(output),
            "--ipc", "3", "--icr", "0.1",
            *extra,
        ]
        assert main(args) == 0
        return list(read_jsonl(output))

    def test_plain_mine_runs_the_in_process_loop(self, simulated, workdir, capsys):
        rows = self._mine(simulated, workdir / "plain.jsonl")
        out = capsys.readouterr().out
        # One summary line; its entity count is the catalog the loop consumed.
        hits = len({row["canonical"] for row in rows})
        assert out == f"mined {len(rows)} synonyms for {hits}/10 values -> {workdir / 'plain.jsonl'}\n"
        # Deterministic to the byte: a second run writes the same file.
        self._mine(simulated, workdir / "again.jsonl")
        assert (workdir / "again.jsonl").read_bytes() == (workdir / "plain.jsonl").read_bytes()

    def test_mine_rejects_a_corrupt_log_line(self, simulated, workdir, capsys):
        clicks = workdir / "corrupt_clicks.jsonl"
        good = (simulated / "click_data.jsonl").read_text(encoding="utf-8").splitlines()[:2]
        clicks.write_text("\n".join(good + ['{"query": "q", "url": "u"}']) + "\n", encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "mine",
                    "--search", str(simulated / "search_data.jsonl"),
                    "--clicks", str(clicks),
                    "--values", str(simulated / "values.txt"),
                    "--output", str(workdir / "never.jsonl"),
                ]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert f"{clicks}:3: " in err[0] and "clicks" in err[0]

    def test_mine_rejects_a_fractional_click_count(self, simulated, workdir, capsys):
        # A count of 2.5 on a real query used to load and then mine into a
        # non-integer click total; the reader now names its line.
        clicks = workdir / "fractional_clicks.jsonl"
        lines = (simulated / "click_data.jsonl").read_text(encoding="utf-8").splitlines()
        row = json.loads(lines[0])
        row["clicks"] = 2.5
        clicks.write_text("\n".join([*lines, json.dumps(row)]) + "\n", encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "mine",
                    "--search", str(simulated / "search_data.jsonl"),
                    "--clicks", str(clicks),
                    "--values", str(simulated / "values.txt"),
                    "--output", str(workdir / "never.jsonl"),
                ]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert f"{clicks}:{len(lines) + 1}: clicks must be an int, got 2.5" in err[0]

    def test_backend_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                [
                    "mine", "--search", "s", "--clicks", "c", "--values", "v",
                    "--output", "o", "--backend", "process",
                ]
            )
        assert "--backend" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--workers", "--database", "--shard-size"])
    def test_pool_and_database_flags_are_gone(self, flag, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                [
                    "mine", "--search", "s", "--clicks", "c", "--values", "v",
                    "--output", "o", flag, "2",
                ]
            )
        assert flag in capsys.readouterr().err


class TestCompileAndServeCLI:
    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("cli-serve")

    @pytest.fixture(scope="class")
    def simulated(self, workdir):
        assert main(
            [
                "simulate", "--dataset", "toy", "--entities", "10",
                "--sessions", "3000", "--output", str(workdir / "logs"),
            ]
        ) == 0
        return workdir / "logs"

    @pytest.fixture(scope="class")
    def mined(self, simulated, workdir):
        output = workdir / "synonyms.jsonl"
        assert main(
            [
                "mine",
                "--search", str(simulated / "search_data.jsonl"),
                "--clicks", str(simulated / "click_data.jsonl"),
                "--values", str(simulated / "values.txt"),
                "--output", str(output),
                "--ipc", "3", "--icr", "0.1",
            ]
        ) == 0
        return output

    @pytest.fixture(scope="class")
    def compiled(self, mined, workdir):
        artifact = workdir / "dict.synart"
        assert main(
            [
                "compile", "--synonyms", str(mined),
                "--output", str(artifact), "--version-label", "cli-v1",
            ]
        ) == 0
        return artifact

    def test_compile_writes_valid_artifact(self, compiled):
        from repro.serving.artifact import SynonymArtifact

        manifest = SynonymArtifact.peek_manifest(compiled)
        assert manifest.version == "cli-v1"
        assert manifest.counts["entries"] > 0

    def test_match_artifact_equals_match_synonyms(self, mined, compiled, capsys):
        rows = list(read_jsonl(mined))
        queries = sorted({row["synonym"] for row in rows})[:10]
        assert main(["match", "--synonyms", str(mined), *queries]) == 0
        from_jsonl = capsys.readouterr().out
        assert main(["match", "--artifact", str(compiled), *queries]) == 0
        from_artifact = capsys.readouterr().out
        assert from_artifact == from_jsonl
        assert '"matched": true' in from_artifact

    def test_match_requires_exactly_one_source(self, mined, compiled):
        with pytest.raises(SystemExit):
            main(["match", "some query"])
        with pytest.raises(SystemExit):
            main(
                [
                    "match", "--synonyms", str(mined),
                    "--artifact", str(compiled), "some query",
                ]
            )

    def test_match_stdin_reports_ambiguous_entities(self, workdir, capsys, monkeypatch):
        import io

        # One synonym shared by two canonicals: the match must surface both
        # entity ids, exactly as a result page would show both candidates.
        ambiguous = workdir / "ambiguous.jsonl"
        with ambiguous.open("w", encoding="utf-8") as handle:
            for canonical in ("alpha movie", "alpha camera"):
                handle.write(
                    json.dumps(
                        {
                            "canonical": canonical, "synonym": "alpha",
                            "ipc": 5, "icr": 0.5, "clicks": 10,
                        }
                    )
                    + "\n"
                )
        monkeypatch.setattr("sys.stdin", io.StringIO("alpha\n"))
        assert main(["match", "--synonyms", str(ambiguous)]) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["matched"] is True
        assert payload["outcome"] == "exact"
        assert payload["entities"] == ["alpha camera", "alpha movie"]

    def test_compile_priors_embeds_click_priors(self, mined, simulated, workdir, capsys):
        from repro.serving.artifact import SynonymArtifact

        artifact = workdir / "priored.synart"
        assert main(
            [
                "compile", "--synonyms", str(mined),
                "--output", str(artifact),
                "--priors", str(simulated / "click_data.jsonl"),
            ]
        ) == 0
        assert "entity priors" in capsys.readouterr().out
        loaded = SynonymArtifact.load(artifact)
        assert loaded.has_priors is True
        priors = loaded.priors()
        assert priors and any(value > 0 for value in priors.values())

    def test_server_rejects_bad_flags(self, compiled, capsys):
        # Refused by the parser, so also before --procs spawns anything.
        for flag, value in (
            ("--cache-size", "-1"), ("--watch-interval", "-2"), ("--watch-interval", "inf"),
            ("--access-log-sample", "2"),
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(["server", "--artifact", str(compiled), "--procs", "2", flag, value])
            assert excinfo.value.code == 2
            assert f"argument {flag}: must be" in capsys.readouterr().err

    def test_serve_subcommand_is_gone(self, compiled, capsys):
        # `match --artifact` (stdin or argv -> JSONL) and `server` (LRU, hot
        # swap, latency percentiles, clean SIGTERM) cover what it did.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--artifact", str(compiled)])
        assert "invalid choice: 'serve'" in capsys.readouterr().err

    @pytest.mark.parametrize("alias", ["at&t", "c++ primer", "фильм 0001", "日本"])
    def test_verbatim_alias_is_exact_without_fuzzy(self, alias, tmp_path, capsys):
        # Letters of any script and words split by a symbol are words: these
        # once answered fuzzy (or nothing) because they had no token.
        synonyms, artifact = tmp_path / "synonyms.jsonl", tmp_path / "dict.synart"
        row = {"canonical": "entity", "synonym": alias, "ipc": 5, "icr": 0.5, "clicks": 10}
        synonyms.write_text(json.dumps(row) + "\n", encoding="utf-8")
        assert main(["compile", "--synonyms", str(synonyms), "--output", str(artifact)]) == 0
        capsys.readouterr()
        outputs = []
        for source in (["--synonyms", str(synonyms)], ["--artifact", str(artifact)]):
            assert main(["match", *source, "--no-fuzzy", alias]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        payload = json.loads(outputs[0])
        assert (payload["outcome"], payload["entities"]) == ("exact", ["entity"])


class TestInputErrors:
    """Bad input ends every command with exit 2 and one ``repro: error:`` line."""

    @pytest.fixture()
    def logs(self, tmp_path):
        (tmp_path / "search.jsonl").write_text(
            '{"query": "alpha movie", "url": "https://a.example/1", "rank": 1}\n', encoding="utf-8"
        )
        (tmp_path / "clicks.jsonl").write_text(
            '{"query": "alpha", "url": "https://a.example/1", "clicks": 3}\n', encoding="utf-8"
        )
        (tmp_path / "values.txt").write_text("alpha movie\n", encoding="utf-8")
        return tmp_path

    @staticmethod
    def _error_line(argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([str(arg) for arg in argv])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("repro: error: ")
        return err[0]

    def test_compile_names_the_row_missing_a_synonym(self, tmp_path, capsys):
        rows = tmp_path / "rows.jsonl"
        rows.write_text(
            '{"canonical": "alpha movie", "synonym": "alpha", "clicks": 3}\n'
            '{"canonical": "alpha movie"}\n',
            encoding="utf-8",
        )
        line = self._error_line(
            ["compile", "--synonyms", rows, "--output", tmp_path / "out.synart"], capsys
        )
        assert f"{rows}:2: " in line and "synonym" in line
        assert not (tmp_path / "out.synart").exists()

    def test_match_names_the_row_with_non_numeric_clicks(self, tmp_path, capsys):
        rows = tmp_path / "rows.jsonl"
        rows.write_text(
            '{"canonical": "alpha movie", "synonym": "alpha", "clicks": "many"}\n',
            encoding="utf-8",
        )
        line = self._error_line(["match", "--synonyms", rows, "alpha"], capsys)
        assert f"{rows}:1: " in line and "many" in line

    def test_mine_missing_values_file(self, logs, capsys):
        line = self._error_line(
            [
                "mine", "--search", logs / "search.jsonl", "--clicks", logs / "clicks.jsonl",
                "--values", logs / "nope.txt", "--output", logs / "never.jsonl",
            ],
            capsys,
        )
        assert "nope.txt" in line
        assert not (logs / "never.jsonl").exists()

    def test_mine_missing_search_log(self, logs, capsys):
        line = self._error_line(
            [
                "mine", "--search", logs / "nope.jsonl", "--clicks", logs / "clicks.jsonl",
                "--values", logs / "values.txt", "--output", logs / "never.jsonl",
            ],
            capsys,
        )
        assert "nope.jsonl" in line

    def test_match_missing_artifact(self, tmp_path, capsys):
        line = self._error_line(["match", "--artifact", tmp_path / "nope.synart", "alpha"], capsys)
        assert "nope.synart" in line

    def test_match_rejects_an_artifact_without_blocks(self, tmp_path, capsys):
        # The manifest passes the reader gate and the (empty) content hash
        # verifies; the missing blocks are still bad input, not a traceback.
        from repro.matching.index import DictionaryEntry
        from repro.serving.artifact import ARTIFACT_KIND, compile_dictionary
        from repro.storage.artifact import write_artifact

        manifest = compile_dictionary([DictionaryEntry("alpha", "e1")], tmp_path / "ok.synart")
        empty = tmp_path / "empty.synart"
        write_artifact(empty, {}, kind=ARTIFACT_KIND, extra=manifest.extra)
        line = self._error_line(["match", "--artifact", empty, "alpha"], capsys)
        assert "'strings.blob'" in line and "recompile" in line

    def test_server_rejects_a_corrupt_artifact(self, tmp_path, capsys):
        junk = tmp_path / "junk.synart"
        junk.write_bytes(b"not an artifact at all")
        line = self._error_line(["server", "--artifact", junk, "--port", "0"], capsys)
        assert "junk.synart" in line

    def test_compile_without_output(self, tmp_path, capsys):
        rows = tmp_path / "rows.jsonl"
        rows.write_text(
            '{"canonical": "alpha movie", "synonym": "alpha", "clicks": 3}\n', encoding="utf-8"
        )
        line = self._error_line(["compile", "--synonyms", rows], capsys)
        assert "--output is required without --delta" in line

    def test_scenario_run_unknown_name(self, tmp_path, capsys):
        line = self._error_line(
            ["scenario", "run", "no-such-scenario", "--workdir", tmp_path], capsys
        )
        assert "unknown scenario 'no-such-scenario'" in line and "flash-crowd" in line

    def test_scenario_run_nan_duration(self, tmp_path, capsys):
        # Refused before any daemon boots; a NaN deadline never passed.
        line = self._error_line(
            ["scenario", "run", "cold-cache", "--duration", "nan", "--workdir", tmp_path], capsys
        )
        assert "duration_s must be finite, got nan" in line
