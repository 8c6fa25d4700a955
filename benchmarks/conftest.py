"""Shared fixtures for the benchmark harness.

The simulated worlds are the expensive part (the cameras world indexes
~7,000 pages and simulates 120,000 sessions), so they are built once per
benchmark session and shared by every benchmark.  Rendered experiment
output is written to ``benchmarks/results/`` only when pytest runs with
``--write-results``, so the rows/series the paper reports are refreshed on
purpose; an ordinary test run leaves the working tree clean and fails if
any rendering differs from the committed file, so no table cell moves
unnoticed.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.simulation import ScenarioConfig, build_world  # noqa: E402

RESULTS_DIR = Path(__file__).resolve().parent / "results"


@pytest.fixture(scope="session")
def movies_world():
    """The D1 preset: 100 movie titles."""
    return build_world(ScenarioConfig.movies())


@pytest.fixture(scope="session")
def cameras_world():
    """The D2 preset: 882 camera names."""
    return build_world(ScenarioConfig.cameras())


@pytest.fixture(scope="session")
def results_dir(request: pytest.FixtureRequest) -> Path | None:
    """Where rendered tables go, or ``None`` without ``--write-results``."""
    if not request.config.getoption("--write-results"):
        return None
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


def write_result(results_dir: Path | None, name: str, text: str) -> None:
    """Persist a rendered experiment table under ``benchmarks/results/``, or,
    without ``--write-results``, require it to equal the committed file."""
    if results_dir is not None:
        (results_dir / name).write_text(text + "\n", encoding="utf-8")
        return
    committed = (RESULTS_DIR / name).read_text(encoding="utf-8")
    assert text + "\n" == committed, (
        f"benchmarks/results/{name} no longer matches this rendering; "
        f"rerun with --write-results only to accept a deliberate change"
    )
