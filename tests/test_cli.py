"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.storage.jsonl import read_jsonl


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
        self._mine(simulated, workdir / "plain.jsonl")
        out = capsys.readouterr().out
        assert "[4 shards," in out and "profile cache hit rate" in out
        self._mine(simulated, workdir / "short.jsonl", "--shard-size", "3")
        assert (workdir / "short.jsonl").read_bytes() == (workdir / "plain.jsonl").read_bytes()

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

    def test_parser_accepts_batch_flags(self):
        args = build_parser().parse_args(
            [
                "mine", "--search", "s", "--clicks", "c", "--values", "v",
                "--output", "o", "--shard-size", "100",
            ]
        )
        assert args.shard_size == 100

    def test_backend_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                [
                    "mine", "--search", "s", "--clicks", "c", "--values", "v",
                    "--output", "o", "--backend", "process",
                ]
            )
        assert "--backend" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--workers", "--database"])
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

    def test_serve_from_query_file(self, mined, compiled, workdir, capsys):
        rows = list(read_jsonl(mined))
        queries_file = workdir / "queries.txt"
        queries_file.write_text(
            rows[0]["synonym"] + "\n\n" + "unmatched zzz query\n", encoding="utf-8"
        )
        assert main(
            ["serve", "--artifact", str(compiled), "--queries", str(queries_file)]
        ) == 0
        captured = capsys.readouterr()
        lines = [json.loads(line) for line in captured.out.strip().splitlines()]
        assert len(lines) == 2
        assert lines[0]["matched"] is True
        assert lines[1]["matched"] is False
        assert "latency p50" in captured.err
        assert "artifact version cli-v1" in captured.err

    def test_serve_reads_stdin(self, mined, compiled, capsys, monkeypatch):
        import io

        rows = list(read_jsonl(mined))
        monkeypatch.setattr("sys.stdin", io.StringIO(rows[0]["synonym"] + "\n"))
        assert main(["serve", "--artifact", str(compiled)]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out.strip())["matched"] is True

    def test_serve_cache_hits_reported(self, mined, compiled, workdir, capsys):
        rows = list(read_jsonl(mined))
        queries_file = workdir / "repeat.txt"
        queries_file.write_text((rows[0]["synonym"] + "\n") * 5, encoding="utf-8")
        assert main(
            ["serve", "--artifact", str(compiled), "--queries", str(queries_file)]
        ) == 0
        assert "cache hit rate 80.0% (4/5)" in capsys.readouterr().err

    def test_serve_watch_hot_swaps(self, mined, compiled, workdir, capsys, monkeypatch):
        import io

        from repro.matching.dictionary import DictionaryEntry, SynonymDictionary
        from repro.serving.artifact import compile_dictionary

        artifact = workdir / "swap.synart"
        compile_dictionary(
            SynonymDictionary([DictionaryEntry("old synonym", "e1", "mined", 5.0)]),
            artifact,
            version="gen-1",
        )

        def feeding_stdin():
            text = "".join(["old synonym\n", "fresh synonym\n"])
            return io.StringIO(text)

        # Republish between the two queries by hooking the reload poll: the
        # first maybe_reload sees gen-1, then we atomically replace the file.
        republished = {"done": False}
        from repro.serving.service import MatchService

        original = MatchService.maybe_reload

        def republish_then_poll(self):
            result = original(self)
            if not republished["done"]:
                republished["done"] = True
                compile_dictionary(
                    SynonymDictionary(
                        [DictionaryEntry("fresh synonym", "e2", "mined", 9.0)]
                    ),
                    artifact,
                    version="gen-2",
                )
            return result

        monkeypatch.setattr(MatchService, "maybe_reload", republish_then_poll)
        monkeypatch.setattr("sys.stdin", feeding_stdin())
        assert main(["serve", "--artifact", str(artifact), "--watch"]) == 0
        captured = capsys.readouterr()
        lines = [json.loads(line) for line in captured.out.strip().splitlines()]
        assert lines[0]["matched"] is True          # served by gen-1
        assert lines[1]["entities"] == ["e2"]       # served by gen-2 after swap
        assert "reloads 1" in captured.err
        assert "artifact version gen-2" in captured.err

    def test_serve_rejects_negative_cache_size(self, compiled):
        with pytest.raises(SystemExit, match="cache-size"):
            main(["serve", "--artifact", str(compiled), "--cache-size", "-1"])

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

    def test_serve_interrupt_flushes_summary(self, mined, compiled, capsys, monkeypatch):
        """Ctrl-C mid-stream: summary still flushed, exit code 0, no traceback."""
        rows = list(read_jsonl(mined))

        class InterruptedStdin:
            def __init__(self):
                self._lines = iter([rows[0]["synonym"] + "\n"])

            def __iter__(self):
                return self

            def __next__(self):
                try:
                    return next(self._lines)
                except StopIteration:
                    raise KeyboardInterrupt

        monkeypatch.setattr("sys.stdin", InterruptedStdin())
        assert main(["serve", "--artifact", str(compiled)]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out.strip())["matched"] is True
        assert "served 1 queries" in captured.err
        assert "stopped by" in captured.err

    def test_server_rejects_bad_flags(self, compiled):
        with pytest.raises(SystemExit, match="cache-size"):
            main(["server", "--artifact", str(compiled), "--cache-size", "-1"])
        with pytest.raises(SystemExit, match="watch-interval"):
            main(["server", "--artifact", str(compiled), "--watch-interval", "-2"])
