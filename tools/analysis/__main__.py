"""``python -m tools.analysis [PATH ...]``: run every rule, print findings.

``PATH`` defaults to ``src``; ``--list-rules`` prints the catalog.  Exit 0
when clean, 1 on findings, 2 on a missing path or a bad option.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from tools.analysis.engine import Finding, analyze_paths, registered_rules


def render_text(findings: Sequence[Finding]) -> str:
    """One ``path:line:col: rule: message`` line per finding + a tally."""
    lines = [finding.format() for finding in findings]
    if findings:
        lines.append(f"{len(findings)} finding{'s' if len(findings) != 1 else ''}")
    else:
        lines.append("no findings")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m tools.analysis",
        description="run the project-specific static checkers "
                    "(lock discipline, determinism, artifact safety, mmap lifetime)",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"], metavar="PATH",
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list the registered rules and exit",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule in registered_rules():
            print(f"{rule.id}: {rule.summary}")
        return 0
    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        print(f"analyze: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    findings = analyze_paths(args.paths)
    print(render_text(findings))
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
