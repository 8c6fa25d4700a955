"""Command-line interface.

Eight subcommands cover the offline *and* online workflow end to end
without writing any Python:

* ``simulate``    — build a simulated world and dump its catalog, Search
  Data and Click Data as JSONL files (the shape a real log-delivery
  pipeline would produce);
* ``mine``        — run the two-phase miner over JSONL logs and write the
  expanded dictionary as JSONL, streamed entity by entity from the one
  mining loop;
* ``compile``     — freeze a mined synonyms JSONL into a compiled serving
  artifact (one immutable file, cold-loadable in one read);
  ``--priors CLICKS_JSONL`` embeds per-entity click priors so ``server``
  can rank ambiguous matches without the log; ``--delta BASE`` diffs
  against an existing artifact and writes a small delta sidecar instead
  of a full file (see ``docs/ARTIFACT_FORMAT.md``);
* ``delta-apply`` — materialize ``BASE + DELTA`` as a full artifact
  offline (chain verification included), the operational tool for merging
  a delta journal back into its base;
* ``match``       — match live queries (arguments or stdin) against a
  mined dictionary, from ``--synonyms`` JSONL (compiled in memory) or a
  compiled ``--artifact`` (fast path);
* ``server``      — run the long-lived HTTP/JSON match daemon
  (:mod:`repro.server`) over a compiled artifact: ``/match``,
  ``/resolve``, ``/healthz``, ``/stats`` (with per-endpoint latency
  histograms), ``/admin/reload``, with a background watcher hot-swapping
  republished artifacts and applying delta sidecars in memory (no server
  writes a file); ``--procs N`` runs N worker processes sharing one port
  via ``SO_REUSEPORT`` and the mapped artifact's pages,
  ``--access-log``/``--access-log-sample`` enable a sampled JSONL access
  log;
* ``experiments`` — regenerate Figure 2, Figure 3 and Table I as text;
* ``scenario``    — the scenario & experiment harness
  (:mod:`repro.scenarios`): ``list`` the named workload scenarios,
  ``run`` one against a freshly booted daemon (``--procs`` mirrors
  ``server``) writing a versioned JSON result, and ``compare``
  two result files metric by metric.

Invoke as ``python -m repro <subcommand> ...``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence, TypeVar

from repro.clicklog.log import ClickLog, SearchLog
from repro.clicklog.records import ClickRecord, SearchRecord
from repro.core.config import MinerConfig
from repro.core.pipeline import SynonymMiner
from repro.matching.index import DictionaryEntry, entries_from_mined_rows, mined_row
from repro.matching.matcher import QueryMatcher
from repro.server.daemon import DEFAULT_PORT, MatchDaemon, match_payload
from repro.server.supervisor import ServerSupervisor
from repro.serving.artifact import SynonymArtifact, compile_dictionary
from repro.storage.jsonl import read_jsonl_as, write_jsonl

__all__ = ["main", "build_parser"]

_Log = TypeVar("_Log", SearchLog, ClickLog)


# --------------------------------------------------------------------------- #
# Parser
# --------------------------------------------------------------------------- #

def _bounded(
    cast: Callable[[str], Any], low: float, high: float | None = None
) -> Callable[[str], Any]:
    """An argparse ``type=``: *cast* the text, require a finite ``low <= value [<= high]``."""
    wanted = f">= {low}" if high is None else f"in [{low}, {high}]"

    def parse(text: str) -> Any:
        value = cast(text)
        if not (math.isfinite(value) and low <= value <= (value if high is None else high)):
            raise argparse.ArgumentTypeError(f"must be a finite number {wanted}, got {text}")
        return value

    parse.__name__ = cast.__name__  # argparse's own "invalid int value: 'x'"
    return parse


_positive_int = _bounded(int, 1)
_non_negative_int = _bounded(int, 0)
_non_negative_float = _bounded(float, 0)
_unit_fraction = _bounded(float, 0, 1)


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fuzzy matching of Web queries to structured data (ICDE 2010 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    simulate = subparsers.add_parser(
        "simulate", help="build a simulated world and dump its logs as JSONL"
    )
    simulate.add_argument("--dataset", choices=("toy", "movies", "cameras"), default="toy")
    simulate.add_argument("--entities", type=int, default=None, help="override the entity count")
    simulate.add_argument("--sessions", type=int, default=None, help="override the session count")
    simulate.add_argument("--seed", type=int, default=11)
    simulate.add_argument("--output", type=Path, required=True, help="output directory")

    mine = subparsers.add_parser("mine", help="mine synonyms from JSONL search/click logs")
    mine.add_argument("--search", type=Path, required=True, help="search data JSONL (query,url,rank)")
    mine.add_argument("--clicks", type=Path, required=True, help="click data JSONL (query,url,clicks)")
    mine.add_argument(
        "--values", type=Path, required=True,
        help="text file with one canonical data value per line",
    )
    mine.add_argument("--ipc", type=int, default=4, help="IPC threshold β (default 4)")
    mine.add_argument("--icr", type=float, default=0.1, help="ICR threshold γ (default 0.1)")
    mine.add_argument("--top-k", type=int, default=10, help="surrogate top-k cut-off")
    mine.add_argument("--output", type=Path, required=True, help="output synonyms JSONL")

    compile_ = subparsers.add_parser(
        "compile", help="freeze a mined synonyms JSONL into a compiled serving artifact"
    )
    compile_.add_argument("--synonyms", type=Path, required=True, help="synonyms JSONL from `mine`")
    compile_.add_argument(
        "--output", type=Path, default=None,
        help="output file (required unless --delta, which defaults to the "
             "BASE_ARTIFACT.delta sidecar servers watch)",
    )
    compile_.add_argument(
        "--version-label", default="1",
        help="version label recorded in the artifact manifest (default: 1)",
    )
    compile_.add_argument(
        "--priors", type=Path, default=None, metavar="CLICKS_JSONL",
        help="click data JSONL (query,url,clicks); embeds per-entity click "
             "priors so `server` ranks ambiguous matches offline",
    )
    compile_.add_argument(
        "--delta", type=Path, default=None, metavar="BASE_ARTIFACT",
        help="diff against this compiled artifact and write a delta sidecar "
             "(changed/removed entities + prior updates) instead of a full "
             "artifact; without --output it lands at BASE_ARTIFACT.delta, "
             "where a server watching BASE_ARTIFACT applies it in place",
    )

    delta_apply = subparsers.add_parser(
        "delta-apply", help="materialize BASE + DELTA as a full compiled artifact"
    )
    delta_apply.add_argument("--base", type=Path, required=True, help="full base artifact")
    delta_apply.add_argument("--delta", type=Path, required=True, help="delta sidecar file")
    delta_apply.add_argument(
        "--output", type=Path, required=True,
        help="output artifact file (may equal --base; the write is atomic)",
    )

    match = subparsers.add_parser("match", help="match live queries against a mined dictionary")
    match_source = match.add_mutually_exclusive_group(required=True)
    match_source.add_argument("--synonyms", type=Path, help="synonyms JSONL from `mine`")
    match_source.add_argument(
        "--artifact", type=Path,
        help="compiled artifact from `compile` (saves compiling the JSONL on every run)",
    )
    match.add_argument("--no-fuzzy", action="store_true", help="disable the fuzzy fallback")
    match.add_argument("queries", nargs="*", help="queries to match (reads stdin when omitted)")

    server = subparsers.add_parser(
        "server", help="run the long-lived HTTP/JSON match daemon over a compiled artifact"
    )
    server.add_argument("--artifact", type=Path, required=True, help="compiled artifact file")
    server.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    server.add_argument(
        "--port", type=int, default=DEFAULT_PORT,
        help=f"bind port, 0 picks a free one (default {DEFAULT_PORT})",
    )
    server.add_argument("--no-fuzzy", action="store_true", help="disable the fuzzy fallback")
    server.add_argument(
        "--cache-size", type=_non_negative_int, default=4096,
        help="LRU result cache size, 0 disables (default 4096)",
    )
    server.add_argument(
        "--watch-interval", type=_non_negative_float, default=2.0,
        help="mean seconds between artifact hot-swap polls (each wait is jittered to "
        "0.5-1.5x), 0 disables the watcher (default 2)",
    )
    server.add_argument(
        "--max-batch", type=_positive_int, default=1024,
        help="largest accepted 'queries' batch per request (default 1024)",
    )
    server.add_argument(
        "--procs", type=_positive_int, default=1,
        help="worker processes sharing the port via SO_REUSEPORT "
             "(default 1: a single in-process daemon)",
    )
    server.add_argument(
        "--access-log", type=Path, default=None, metavar="PATH",
        help="append sampled access-log JSONL lines to PATH "
             "(default: stderr when sampling is enabled)",
    )
    server.add_argument(
        "--access-log-sample", type=_unit_fraction, default=None, metavar="R",
        help="fraction of requests written to the access log, 0..1 "
             "(default: 0 — access logging off — unless --access-log is "
             "given, which implies 1.0)",
    )
    # Accepted and ignored: every server maps the artifact, and the frozen
    # harness (benchmarks/perf/daemon.py) still passes it; ROADMAP open
    # item 1 frees the spelling.
    server.add_argument("--mmap", action="store_true", help=argparse.SUPPRESS)

    experiments = subparsers.add_parser(
        "experiments", help="regenerate the paper's figures and tables as text"
    )
    experiments.add_argument("--artifact", choices=("figure2", "figure3", "table1", "all"), default="all")

    scenario = subparsers.add_parser(
        "scenario",
        help="run declarative workload scenarios against a live daemon "
             "and compare the result files",
    )
    scenario_sub = scenario.add_subparsers(dest="scenario_command", required=True)
    scenario_sub.add_parser("list", help="list the named scenarios")
    scenario_run = scenario_sub.add_parser(
        "run", help="run a named scenario and write a versioned JSON result"
    )
    scenario_run.add_argument("name", help="scenario name (see 'scenario list')")
    scenario_run.add_argument(
        "--seed", type=int, default=None, help="override the scenario's seed"
    )
    scenario_run.add_argument(
        "--duration", type=float, default=None, metavar="S",
        help="override seconds per repeat",
    )
    scenario_run.add_argument(
        "--repeats", type=_positive_int, default=None, help="override repeat count"
    )
    scenario_run.add_argument(
        "--entities", type=_positive_int, default=None,
        help="override the synthetic catalog size",
    )
    scenario_run.add_argument(
        "--procs", type=_positive_int, default=1,
        help="worker processes for the driven daemon (default 1)",
    )
    scenario_run.add_argument(
        "--output", type=Path, default=None, metavar="PATH",
        help="result JSON path (default results/scenarios/<name>.json)",
    )
    scenario_run.add_argument(
        "--workdir", type=Path, default=None, metavar="DIR",
        help="artifact/delta working directory "
             "(default: a fresh temporary directory)",
    )
    scenario_compare = scenario_sub.add_parser(
        "compare", help="diff two scenario result files"
    )
    scenario_compare.add_argument("result_a", type=Path, help="baseline result JSON")
    scenario_compare.add_argument("result_b", type=Path, help="candidate result JSON")
    scenario_compare.add_argument(
        "--json", action="store_true", help="emit the structured comparison as JSON"
    )

    return parser


# --------------------------------------------------------------------------- #
# Subcommands
# --------------------------------------------------------------------------- #

def _cmd_simulate(args: argparse.Namespace) -> int:
    # Imported lazily, like every paper-side package: the simulator (numpy,
    # the BM25 engine) stays out of the other subcommands' processes.
    from repro.simulation.world import WorldConfig, build_world

    overrides = {"seed": args.seed}
    if args.entities is not None:
        overrides["entity_count"] = args.entities
    if args.sessions is not None:
        overrides["session_count"] = args.sessions
    preset = {
        "movies": WorldConfig.movies,
        "cameras": WorldConfig.cameras,
        "toy": WorldConfig.toy,
    }[args.dataset]
    world = build_world(preset(**overrides))
    output: Path = args.output
    output.mkdir(parents=True, exist_ok=True)

    write_jsonl(output / "search_data.jsonl", world.search_log.iter_records())
    write_jsonl(output / "click_data.jsonl", world.click_log.iter_records())
    write_jsonl(
        output / "catalog.jsonl",
        (
            {
                "entity_id": entity.entity_id,
                "canonical_name": entity.canonical_name,
                "domain": entity.domain,
                "popularity": entity.popularity,
            }
            for entity in world.catalog
        ),
    )
    (output / "values.txt").write_text(
        "\n".join(world.canonical_queries()) + "\n", encoding="utf-8"
    )
    print(f"simulated {world.summary()} -> {output}")
    return 0


def _load_log(log_type: type[_Log], path: Path, record_type: type) -> _Log:
    """Build a log from a JSONL dump."""
    return log_type(read_jsonl_as(path, record_type))


def _cmd_mine(args: argparse.Namespace) -> int:
    search_log = _load_log(SearchLog, args.search, SearchRecord)
    click_log = _load_log(ClickLog, args.clicks, ClickRecord)
    values = [
        line.strip()
        for line in args.values.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    config = MinerConfig(surrogate_k=args.top_k, ipc_threshold=args.ipc, icr_threshold=args.icr)
    miner = SynonymMiner(click_log=click_log, search_log=search_log, config=config)
    hits = entities = 0

    def rows() -> Iterator[dict]:
        nonlocal hits, entities
        for entry in miner.mine_iter(values):
            entities += 1
            hits += entry.has_synonyms
            for candidate in entry.selected:
                yield {
                    "canonical": entry.canonical,
                    "synonym": candidate.query,
                    "ipc": candidate.ipc,
                    "icr": round(candidate.icr, 4),
                    "clicks": candidate.clicks,
                }

    synonyms = write_jsonl(args.output, rows())
    print(f"mined {synonyms} synonyms for {hits}/{entities} values -> {args.output}")
    return 0


def _synonym_entries(path: Path) -> list[DictionaryEntry]:
    """Dictionary entries for a `mine` output JSONL.

    A row missing ``canonical`` / ``synonym`` or with non-numeric
    ``clicks`` raises the reader's ``<path>:<line>: reason``.
    """
    return list(entries_from_mined_rows(read_jsonl_as(path, mined_row)))


def _cmd_compile(args: argparse.Namespace) -> int:
    entries = _synonym_entries(args.synonyms)
    click_log = None
    if args.priors is not None:
        click_log = _load_log(ClickLog, args.priors, ClickRecord)
    if args.delta is not None:
        from repro.serving.delta import delta_path_for, diff_delta

        output = args.output if args.output is not None else delta_path_for(args.delta)
        base = SynonymArtifact.load(args.delta)
        manifest = diff_delta(
            base, entries, output,
            version=args.version_label, click_log=click_log,
        )
        size = output.stat().st_size
        base_size = args.delta.stat().st_size
        print(
            f"delta vs {base.manifest.version}: {manifest.counts['changed_entities']} "
            f"changed, {manifest.counts['removed_entities']} removed, "
            f"{manifest.counts.get('prior_updates', 0)} prior updates "
            f"-> {output} [{size} bytes vs {base_size} full, "
            f"version {manifest.version}]"
        )
        if output != delta_path_for(args.delta):
            print(
                f"note: servers watching {args.delta} look for "
                f"{delta_path_for(args.delta)}; this delta will not be picked "
                f"up automatically",
                file=sys.stderr,
            )
        return 0
    if args.output is None:
        raise ValueError("compile: --output is required without --delta")
    manifest = compile_dictionary(
        entries, args.output, version=args.version_label, click_log=click_log
    )
    size = args.output.stat().st_size
    priors_note = (
        f", {manifest.counts['prior_entities']} entity priors" if click_log is not None else ""
    )
    print(
        f"compiled {manifest.counts['entries']} entries "
        f"({manifest.counts['unique_texts']} strings, {manifest.counts['tokens']} tokens"
        f"{priors_note}) "
        f"-> {args.output} [{size} bytes, version {manifest.version}, "
        f"sha256 {manifest.content_hash[:12]}]"
    )
    return 0


def _cmd_delta_apply(args: argparse.Namespace) -> int:
    from repro.serving.delta import DictionaryDelta, apply_delta

    base = SynonymArtifact.load(args.base)
    delta = DictionaryDelta.load(args.delta)
    applied = apply_delta(base, delta, output_path=args.output)
    size = args.output.stat().st_size
    print(
        f"applied {delta.version} ({delta.manifest.counts['changed_entities']} changed, "
        f"{delta.manifest.counts['removed_entities']} removed) onto "
        f"{base.manifest.version} -> {args.output} [{size} bytes, "
        f"{len(applied)} entries, sha256 {applied.manifest.content_hash[:12]}]"
    )
    return 0


def _cmd_match(args: argparse.Namespace) -> int:
    if args.artifact is not None:
        artifact = SynonymArtifact.load(args.artifact)
    else:
        artifact = SynonymArtifact.from_entries(_synonym_entries(args.synonyms))
    matcher = QueryMatcher(artifact, enable_fuzzy=not args.no_fuzzy)

    queries = list(args.queries)
    if not queries:
        queries = [line.strip() for line in sys.stdin if line.strip()]
    for query in queries:
        # The daemon's wire shape, so `match` JSONL and the HTTP endpoints
        # stay field-for-field interchangeable.
        print(json.dumps(match_payload(matcher.match(query)), ensure_ascii=False))
    return 0


def _cmd_daemon(args: argparse.Namespace) -> int:
    # --access-log without an explicit rate means "log everything there":
    # a silently-empty log file would be worse than either behavior.
    if args.access_log_sample is None:
        access_log_sample = 1.0 if args.access_log is not None else 0.0
    else:
        access_log_sample = args.access_log_sample
    watch_note = (
        f"watching {args.artifact} every {args.watch_interval:g}s"
        if args.watch_interval > 0
        else "watcher disabled"
    )

    # The daemon options, spelled once: a supervisor forwards them to each
    # worker's MatchDaemon verbatim.
    options: dict[str, Any] = {
        "host": args.host,
        "port": args.port,
        "cache_size": args.cache_size,
        "enable_fuzzy": not args.no_fuzzy,
        "watch_interval": args.watch_interval,
        "max_batch": args.max_batch,
        "access_log_path": args.access_log,
        "access_log_sample": access_log_sample,
    }
    server: MatchDaemon | ServerSupervisor
    if args.procs > 1:
        try:
            # Every worker is listening before the address line goes out —
            # the same bind-before-banner promise the single-process path
            # makes, so a wrapper may connect the moment it reads it.
            server = ServerSupervisor(args.artifact, procs=args.procs, **options).start()
        except RuntimeError as exc:  # no SO_REUSEPORT, or startup failure
            raise SystemExit(f"repro server: error: {exc}") from exc
        detail = f"{args.procs} procs via SO_REUSEPORT"
    else:
        server = MatchDaemon(args.artifact, **options)
        detail = f"artifact version {server.service.manifest.version}"
    # The address line is machine-readable on purpose: with --port 0 it is
    # the only way a wrapper (tests, CI) learns the bound port.
    print(
        f"repro server listening on {server.address} [{detail}, {watch_note}]",
        flush=True,
    )
    return server.run_forever()


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.eval.experiments import run_quality
    from repro.eval.reporting import render_icr_sweep, render_ipc_sweep, render_table1
    from repro.simulation.world import WorldConfig, build_world

    worlds = {"movies": build_world(WorldConfig.movies())}
    if args.artifact in ("table1", "all"):
        worlds["cameras"] = build_world(WorldConfig.cameras())
    rows = run_quality(worlds)
    if args.artifact in ("figure2", "all"):
        print(render_ipc_sweep(rows))
        print()
    if args.artifact in ("figure3", "all"):
        print(render_icr_sweep(rows))
        print()
    if args.artifact in ("table1", "all"):
        print(render_table1(rows))
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    # Imported lazily: the harness pulls in the server/serving stack,
    # which the offline subcommands never need.
    from repro.scenarios import (
        Experiment,
        compare_results,
        get_scenario,
        load_result,
        render_comparison,
        scenario_names,
        write_result,
    )
    from repro.scenarios.library import NAMED_SCENARIOS

    if args.scenario_command == "list":
        width = max(len(name) for name in scenario_names())
        for name in scenario_names():
            print(f"{name:<{width}}  {NAMED_SCENARIOS[name].description}")
        return 0

    if args.scenario_command == "compare":
        comparison = compare_results(load_result(args.result_a), load_result(args.result_b))
        if args.json:
            print(json.dumps(comparison, indent=2, sort_keys=True))
        else:
            print(render_comparison(comparison))
        return 0

    try:
        scenario = get_scenario(args.name)
    except KeyError as exc:
        raise ValueError(exc.args[0]) from exc
    scenario = scenario.with_overrides(
        seed=args.seed,
        duration_s=args.duration,
        repeats=args.repeats,
        entities=args.entities,
    )
    output = args.output
    if output is None:
        output = Path("results") / "scenarios" / f"{scenario.name}.json"
    with contextlib.ExitStack() as stack:
        if args.workdir is not None:
            workdir = args.workdir
        else:
            import tempfile

            workdir = Path(
                stack.enter_context(tempfile.TemporaryDirectory(prefix="repro-scenario-"))
            )
        experiment = Experiment(
            scenario,
            workdir=workdir,
            procs=args.procs,
            log=lambda message: print(f"scenario {scenario.name}: {message}", file=sys.stderr),
        )
        result = experiment.run()
    write_result(result, output)
    summary = result["summary"]
    print(
        f"scenario {scenario.name}: {summary['requests']} requests "
        f"({summary['queries']} queries) at {summary['throughput_rps']} req/s, "
        f"{summary['errors']} errors, {summary['deltas_published']} deltas published "
        f"({summary['server']['deltas_applied']} applied) -> {output}"
    )
    # A drive error means the measurement itself is suspect: fail the
    # run loudly so CI smoke jobs cannot greenwash a flaky daemon.
    return 0 if summary["errors"] == 0 else 1


_COMMANDS = {
    "simulate": _cmd_simulate,
    "mine": _cmd_mine,
    "compile": _cmd_compile,
    "delta-apply": _cmd_delta_apply,
    "match": _cmd_match,
    "server": _cmd_daemon,
    "experiments": _cmd_experiments,
    "scenario": _cmd_scenario,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.command]
    try:
        return handler(args)
    except (OSError, ValueError) as exc:
        # Bad input is not a crash: an unreadable path, a corrupt artifact
        # (ArtifactError is a ValueError) or a reader's "<path>:<line>:
        # reason" ends every command the same way.
        print(f"repro: error: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc


if __name__ == "__main__":
    raise SystemExit(main())
