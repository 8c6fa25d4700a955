"""Every publisher's output state, pinned by hash.

Three producers turn mined synonyms into dictionary entries: ``repro
compile`` (full and ``--delta``), :meth:`IncrementalSynonymMiner.publish`
(full and delta) and the scenario driver.  The values below were recorded
before the entry rules moved into :mod:`repro.matching.index`, so any drift
in which entries a publisher emits, in their order, source, weight or
priors, fails here by name.

Only ``state_hash`` is pinned: it packs every field little-endian, so the
values hold on any platform.  The container's ``content_hash`` covers
native-endian blocks and is compared publisher against publisher elsewhere.
"""

import json

from repro.cli import main
from repro.clicklog.log import ClickLog, SearchLog
from repro.clicklog.records import ClickRecord
from repro.core.config import MinerConfig
from repro.core.incremental import IncrementalSynonymMiner
from repro.storage.artifact import read_manifest

# Mined rows as `repro mine` writes them, with the awkward cases in: a
# synonym that normalizes onto its canonical (heavier, so its source wins),
# case and punctuation variants, one synonym shared by two canonicals, a
# row without ``clicks`` and non-ASCII text.
SYNONYM_ROWS = [
    {"canonical": "alpha movie", "synonym": "alpha", "ipc": 5, "icr": 0.9, "clicks": 40},
    {"canonical": "alpha movie", "synonym": "Alpha  Movie!", "ipc": 4, "icr": 0.5, "clicks": 7},
    {"canonical": "alpha movie", "synonym": "alfa film", "ipc": 4, "icr": 0.2, "clicks": 3},
    {"canonical": "beta camera", "synonym": "alpha", "ipc": 4, "icr": 0.3, "clicks": 9},
    {"canonical": "beta camera", "synonym": "BETA cam", "ipc": 6, "icr": 0.8},
    {"canonical": "gamma café", "synonym": "gamma cafe", "ipc": 5, "icr": 0.7, "clicks": 12},
    {"canonical": "gamma café", "synonym": "ガンマ", "ipc": 4, "icr": 0.4, "clicks": 2},
]

# The next mining run: beta's shared synonym is retracted, a weight moves,
# gamma gains a synonym and delta appears.
NEXT_ROWS = [
    {"canonical": "alpha movie", "synonym": "alpha", "ipc": 5, "icr": 0.9, "clicks": 55},
    {"canonical": "alpha movie", "synonym": "Alpha  Movie!", "ipc": 4, "icr": 0.5, "clicks": 7},
    {"canonical": "alpha movie", "synonym": "alfa film", "ipc": 4, "icr": 0.2, "clicks": 3},
    {"canonical": "beta camera", "synonym": "BETA cam", "ipc": 6, "icr": 0.8},
    {"canonical": "gamma café", "synonym": "gamma cafe", "ipc": 5, "icr": 0.7, "clicks": 12},
    {"canonical": "gamma café", "synonym": "ガンマ", "ipc": 4, "icr": 0.4, "clicks": 2},
    {"canonical": "gamma café", "synonym": "gamma coffee", "ipc": 4, "icr": 0.3, "clicks": 5},
    {"canonical": "delta phone", "synonym": "dphone", "ipc": 7, "icr": 0.6, "clicks": 30},
]

CLICK_ROWS = [
    {"query": "alpha", "url": "https://a.example/1", "clicks": 40},
    {"query": "alpha movie", "url": "https://a.example/1", "clicks": 11},
    {"query": "beta cam", "url": "https://b.example/1", "clicks": 6},
    {"query": "gamma cafe", "url": "https://g.example/1", "clicks": 12},
    {"query": "dphone", "url": "https://d.example/1", "clicks": 30},
]

PINS = {
    "compile": "efbda055c73e0261be07e27c54936b9e6a5777790c90caa9e9af3951cd2ad0f0",
    "compile --priors": "62f79a6cfe017358bd01baabbd67036839c5bc6a322776c7ccbaeb68a992c0d6",
    "compile --delta": "a0f915e9d017e46ed386258f3508a2510c55463055f183b8d2d2b474eb73d79c",
    "incremental full": "dbd4532313f1ef1739d7101bd04dfcc16b2ce9f79c86db06e4fd426064dcbb14",
    "incremental delta": "d29263505a9496e018d97222b1b273e875391687d39b5df9907f15dd29158c4a",
}


def _write_jsonl(path, rows):
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    return str(path)


def _state_hash(path):
    return str(read_manifest(path).extra["state_hash"])


def _compile(tmp_path, capsys, rows, name, *options):
    output = tmp_path / name
    synonyms = _write_jsonl(tmp_path / f"{name}.jsonl", rows)
    assert main(["compile", "--synonyms", synonyms, "--output", str(output), *options]) == 0
    capsys.readouterr()
    return output


def compile_states(tmp_path, capsys):
    """State hashes of `repro compile`, without and with priors, and of a delta."""
    clicks = _write_jsonl(tmp_path / "clicks.jsonl", CLICK_ROWS)
    plain = _compile(tmp_path, capsys, SYNONYM_ROWS, "plain.synart")
    base = _compile(tmp_path, capsys, SYNONYM_ROWS, "base.synart", "--priors", clicks)
    sidecar = _compile(
        tmp_path, capsys, NEXT_ROWS, "base.synart.delta",
        "--delta", str(base), "--priors", clicks,
    )
    return {
        "compile": _state_hash(plain),
        "compile --priors": _state_hash(base),
        "compile --delta": _state_hash(sidecar),
    }


def incremental_states(world, tmp_path):
    """State hashes of one full and one delta publish over the toy world."""
    miner = IncrementalSynonymMiner(
        search_log=SearchLog(world.search_log.iter_records()),
        click_log=ClickLog(world.click_log.iter_records()),
        config=MinerConfig(),
    )
    values = world.canonical_queries()
    miner.track(values)
    miner.refresh()
    path = tmp_path / "toy.synart"
    full = miner.publish(world.catalog, path)
    # One entity re-mined (clicks on its top surrogate) and one prior moved
    # (clicks on a canonical string, off every surrogate).
    url = miner.search_log.top_urls(values[0], k=1)[0]
    miner.ingest_clicks(
        [ClickRecord(values[0], url, 25), ClickRecord(values[5], "https://x.example", 4)]
    )
    miner.refresh()
    delta = miner.publish(world.catalog, path, delta=True)
    return {
        "incremental full": str(full.extra["state_hash"]),
        "incremental delta": str(delta.extra["state_hash"]),
    }


def test_compile_states_are_pinned(tmp_path, capsys):
    states = compile_states(tmp_path, capsys)
    assert states == {name: PINS[name] for name in states}


def test_incremental_publish_states_are_pinned(toy_world, tmp_path):
    states = incremental_states(toy_world, tmp_path)
    assert states == {name: PINS[name] for name in states}
