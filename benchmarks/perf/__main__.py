"""``python -m benchmarks.perf {run,compare,selfcheck}`` (PYTHONPATH=src)."""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path
from typing import Any

from benchmarks.perf.harness import pin_to_one_cpu, run_workload
from benchmarks.perf.report import (
    append_ledger,
    build_result,
    compare,
    load_result,
    render_attribution,
    render_record,
    selfcheck_rows,
    write_json,
)
from benchmarks.perf.workloads import WORKLOADS

DEFAULT_REPEATS = 7


def _run_set(
    names: list[str], args: argparse.Namespace, *, traced: bool
) -> tuple[list[dict[str, Any]], dict[str, list[Any]]]:
    records = []
    spans = {}
    for name in names:
        workload = WORKLOADS[name].smoke() if args.smoke else WORKLOADS[name]
        print(f"# {name}: seed {args.seed}, {args.repeats} repeats ...", file=sys.stderr, flush=True)
        record, spans[name] = run_workload(
            workload, args.seed, repeats=args.repeats, traced=traced
        )
        records.append(record)
    return records, spans


def _cmd_run(args: argparse.Namespace) -> int:
    names = args.workload or list(WORKLOADS)
    pinned = pin_to_one_cpu()
    records, spans = _run_set(names, args, traced=args.traced)
    for record in records:
        print("\n".join(render_record(record)))
        if args.traced:
            print("\n".join(render_attribution(record)))
    result = build_result(records, seed=args.seed, pinned_cpu=pinned)
    # Nothing is written without one of these flags (pytest never writes).
    if args.output:
        write_json(result, args.output)
    if args.record:
        for record in records:
            print(f"# ledger row appended to {append_ledger(result, record)}", file=sys.stderr)
    if args.trace_out:
        write_json(
            {"span_fields": ["name", "start", "end", "parent", "request"], "workloads": spans},
            args.trace_out,
        )
    failed = sum(record["failed"] for record in records)
    if failed:
        print(f"FAILED: {failed} wrong or failed operations", file=sys.stderr)
    return 1 if failed else 0


def _cmd_compare(args: argparse.Namespace) -> int:
    lines, regressions = compare(load_result(args.a), load_result(args.b))
    print("\n".join(lines))
    return 1 if regressions else 0


def _cmd_selfcheck(args: argparse.Namespace) -> int:
    names = args.workload or list(WORKLOADS)
    pin_to_one_cpu()
    first, _ = _run_set(names, args, traced=False)
    # The second set runs in the opposite order, so a slow minute of the
    # machine does not land on the same workload twice.
    second, _ = _run_set(names[::-1], args, traced=False)
    lines, failing = selfcheck_rows(first, second)
    print("\n".join(lines))
    errors = sum(record["failed"] for record in first + second)
    if failing:
        print(f"selfcheck: {len(failing)} metric(s) outside their bound: {', '.join(failing)}")
    if errors:
        print(f"selfcheck: {errors} wrong or failed operations")
    return 1 if failing or errors else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    def add_run_arguments(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--workload", action="append", choices=sorted(WORKLOADS), metavar="NAME",
            help="workload to run (repeatable; default: all four)",
        )  # fmt: skip
        command.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
        command.add_argument(
            "--repeats", type=int, default=DEFAULT_REPEATS,
            help=f"timed repeats per half (default {DEFAULT_REPEATS}; keep >= 5)",
        )  # fmt: skip
        command.add_argument(
            "--smoke", action="store_true", help="miniature inputs (harness check, not a measurement)"
        )

    run = commands.add_parser("run", help="run workloads and print every metric")
    add_run_arguments(run)
    run.add_argument("--traced", action="store_true", help="add the per-layer traced pass")
    run.add_argument("--output", type=Path, help="write the full result record (JSON)")
    run.add_argument("--record", action="store_true", help="append rows to results/BENCH_*.json")
    run.add_argument("--trace-out", type=Path, help="write the traced pass's spans (JSON)")
    run.set_defaults(handler=_cmd_run)

    compare_ = commands.add_parser("compare", help="diff two result records")
    compare_.add_argument("a", type=Path)
    compare_.add_argument("b", type=Path)
    compare_.set_defaults(handler=_cmd_compare)

    selfcheck = commands.add_parser("selfcheck", help="run the set twice; do the runs agree?")
    add_run_arguments(selfcheck)
    selfcheck.set_defaults(handler=_cmd_selfcheck)

    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C so daemons and scratch directories go away.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    return int(args.handler(args))


if __name__ == "__main__":
    sys.exit(main())
