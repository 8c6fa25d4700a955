"""What the serving and mining processes import, and what they leave out.

``python -m repro server`` is a long-lived process and ``repro.core`` is the
miner; the simulator (numpy, the BM25 engine, the click model), the
evaluation runners and the baselines exist to produce the paper's tables
and must not ride along into either.  Nor does any production path build
the reference index, :mod:`repro.matching.dictionary`: publishers compile
entries straight into the artifact, and one-shot matching compiles in
memory.  The developer tools under ``tools/`` (the static analyzer) are
never loaded by the product either.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_DIR = str(REPO_ROOT / "src")

PAPER_SIDE = ("numpy", "repro.simulation", "repro.search", "repro.eval", "repro.baselines")
DEV_SIDE = ("tools",)

_PROBE = f"""
import sys
import repro.cli, repro.server.daemon, repro.serving.service, repro.core
for name in sorted(sys.modules):
    if any(name == p or name.startswith(p + ".") for p in {PAPER_SIDE + DEV_SIDE!r}):
        print(name)
"""

# Every production publisher and consumer, once each, on handmade data.
_PUBLISH_PROBE = """
import contextlib, io, json, sys, tempfile
from pathlib import Path
from types import SimpleNamespace

import repro.cli, repro.server.daemon, repro.serving.service, repro.core
from repro.clicklog.log import ClickLog, SearchLog
from repro.clicklog.records import ClickRecord
from repro.core import IncrementalSynonymMiner, MinerConfig

url = "https://e.example/alpha"
miner = IncrementalSynonymMiner(
    search_log=SearchLog.from_tuples([("alpha product", url, 1)]),
    click_log=ClickLog.from_tuples([("alfa", url, 10)]),
    config=MinerConfig(surrogate_k=5, ipc_threshold=1, icr_threshold=0.5),
)
entity = SimpleNamespace(entity_id="e-alpha")
catalog = SimpleNamespace(by_canonical_name=lambda: {"alpha product": entity})
with tempfile.TemporaryDirectory() as workdir, contextlib.redirect_stdout(io.StringIO()):
    work = Path(workdir)
    miner.track(["alpha product"])
    miner.refresh()
    miner.publish(catalog, work / "dict.synart")
    miner.ingest_clicks([ClickRecord("alpha prod", url, 3)])
    miner.refresh()
    miner.publish(catalog, work / "dict.synart", delta=True)
    synonyms = work / "synonyms.jsonl"
    synonyms.write_text(json.dumps({"canonical": "alpha product", "synonym": "alfa"}) + "\\n")
    assert repro.cli.main(["compile", "--synonyms", str(synonyms), "--output", str(work / "cli.synart")]) == 0
    assert repro.cli.main(["match", "--synonyms", str(synonyms), "alfa", "alpah product"]) == 0
print("repro.matching.dictionary" in sys.modules)
"""


def _run(probe: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=env, timeout=60, check=True,
        cwd=REPO_ROOT,  # where ``import tools`` would succeed
    )
    return done.stdout


def test_serving_and_mining_imports_leave_out_the_paper_side():
    assert _run(_PROBE).split() == []


def test_publishing_and_matching_never_load_the_reference_index():
    assert _run(_PUBLISH_PROBE).split() == ["False"]
