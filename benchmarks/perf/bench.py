"""The ``BENCHMARK.json`` command: one workload, one seed, one JSON line.

    python3 benchmarks/perf/bench.py --workload NAME --seed N --seconds S --trace 0|1

Prints, as the last line of standard output, ``{"correct", "attempted",
"failed", "metrics"}`` with every end-to-end metric (``--trace 0``) or
every per-layer metric (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (_ROOT / "src" / "repro").is_dir():
        print(f"bench: no program to measure: {_ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    for entry in (str(_ROOT), str(_ROOT / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    from benchmarks.perf.harness import pin_to_one_cpu, run_workload
    from benchmarks.perf.metrics import END_TO_END, PER_LAYER
    from benchmarks.perf.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C, so the daemon and the scratch directory
    # are cleaned up on every exit path.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    pin_to_one_cpu()
    record, _spans = run_workload(
        WORKLOADS[args.workload], args.seed, seconds=args.seconds, traced=bool(args.trace)
    )
    wanted = PER_LAYER if args.trace else END_TO_END
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["sent"],
                "failed": record["failed"],
                "metrics": {
                    metric.name: {
                        "value": record["metrics"][metric.name]["value"],
                        "unit": metric.unit,
                    }
                    for metric in wanted
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
