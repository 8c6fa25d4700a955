"""The serving and mining code imports nothing from the paper-side packages.

``python -m repro server`` is a long-lived process and ``repro.core`` is the
miner; the simulator (numpy, the BM25 engine, the click model), the
evaluation runners and the baselines exist to produce the paper's tables
and must not ride along into either.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")

PAPER_SIDE = ("numpy", "repro.simulation", "repro.search", "repro.eval", "repro.baselines")

_PROBE = f"""
import sys
import repro.cli, repro.server.daemon, repro.serving.service, repro.core
for name in sorted(sys.modules):
    if any(name == p or name.startswith(p + ".") for p in {PAPER_SIDE!r}):
        print(name)
"""


def test_serving_and_mining_imports_leave_out_the_paper_side():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
    probe = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    assert probe.stdout.split() == []
