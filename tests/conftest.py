"""Shared fixtures for the test suite.

The expensive fixtures (simulated worlds) are session-scoped so the whole
suite builds them once; the handcrafted fixtures are tiny and rebuilt per
test for isolation.

This is also the home of the **one** daemon spin-up/teardown helper the
server tests and serving tests share: :func:`start_daemon` /
:func:`daemon_server` boot
an in-process :class:`~repro.server.daemon.MatchDaemon` on a free port —
retrying the bind on ``EADDRINUSE``, which port-reuse under parallel CI
runs occasionally hits — and :func:`cli_server` runs the real
``python -m repro server`` process with a parsed address banner, a
readiness wait via ``/healthz`` and guaranteed SIGTERM cleanup.
"""

from __future__ import annotations

import contextlib
import errno
import os
import re
import signal
import socket
import subprocess
import sys
import time
from array import array
from pathlib import Path
from typing import Any, Iterator, NamedTuple

import pytest

from repro.clicklog.log import ClickLog, SearchLog
from repro.core.config import MinerConfig
from repro.core.incremental import IncrementalSynonymMiner
from repro.core.pipeline import SynonymMiner
from repro.core.selection import intersecting_click_ratio, intersecting_page_count
from repro.core.types import EntitySynonyms, MiningResult, ScoredCandidates, SynonymCandidate
from repro.eval.experiments import QualityRow
from repro.search.documents import Corpus, WebPage
from repro.search.engine import SearchEngine
from repro.simulation.world import WorldConfig, SimulatedWorld, build_world

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")

# The daemon's machine-readable address banner, printed before serving.
BANNER_RE = re.compile(r"http://127\.0\.0\.1:(\d+)")


def start_daemon(artifact: Any, *, port: int = 0, bind_retries: int = 5, **kwargs: Any):
    """Construct and start a :class:`MatchDaemon`, retrying busy binds.

    ``port=0`` (the default) always binds a free ephemeral port; the
    retry loop matters when a test pins a concrete port (say, to restart
    a daemon on the same address) and a parallel run or a lingering
    socket still holds it — ``EADDRINUSE`` backs off and retries instead
    of flaking the run.  All other keyword arguments go straight to the
    daemon constructor.
    """
    from repro.server.daemon import MatchDaemon

    last_error: OSError | None = None
    for attempt in range(bind_retries):
        try:
            return MatchDaemon(artifact, port=port, **kwargs).start()
        except OSError as exc:
            if exc.errno != errno.EADDRINUSE:
                raise
            last_error = exc
            time.sleep(0.05 * (attempt + 1))
    assert last_error is not None
    raise last_error


@pytest.fixture()
def connects(monkeypatch) -> list:
    """Every ``socket.create_connection`` call made during the test.

    Keep-alive is observed from outside: a client that reuses its socket
    adds nothing here, one that reconnects adds an entry.
    """
    calls: list = []
    real_connect = socket.create_connection
    monkeypatch.setattr(
        socket, "create_connection", lambda *a, **k: calls.append(a) or real_connect(*a, **k)
    )
    return calls


@contextlib.contextmanager
def daemon_server(
    artifact: Any,
    *,
    port: int = 0,
    ready_timeout: float = 10.0,
    client_timeout: float = 10.0,
    **kwargs: Any,
) -> Iterator[tuple]:
    """In-process daemon plus a ready client; teardown is guaranteed.

    Yields ``(daemon, client)`` with ``/healthz`` already answering.
    The daemon is stopped (socket closed, watcher joined) however the
    body exits — the try/finally that used to be copy-pasted around
    every inline spin-up lives here now.
    """
    from repro.server.client import ServerClient

    daemon = start_daemon(artifact, port=port, **kwargs)
    try:
        with ServerClient(daemon.host, daemon.port, timeout=client_timeout) as client:
            client.wait_until_ready(timeout=ready_timeout)
            yield daemon, client
    finally:
        daemon.stop()


class CliServer:
    """A running ``python -m repro server`` process, address already parsed."""

    def __init__(self, proc: subprocess.Popen, banner: str, port: int) -> None:
        self.proc = proc
        self.banner = banner
        self.port = port
        self.returncode: int | None = None
        self.stdout_text = ""
        self.stderr_text = ""

    def stop(self, *, timeout: float = 15.0) -> tuple[int, str, str]:
        """SIGTERM the server and collect (returncode, stdout, stderr)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        out, err = self.proc.communicate(timeout=timeout)
        self.returncode = self.proc.returncode
        self.stdout_text += out
        self.stderr_text += err
        return self.returncode, self.stdout_text, self.stderr_text


@contextlib.contextmanager
def cli_server(
    *cli_args: str,
    ready_timeout: float = 60.0,
    wait_ready: bool = True,
    env: dict[str, str] | None = None,
) -> Iterator[CliServer]:
    """The real ops path: spawn ``python -m repro server ...`` and clean up.

    Reads the address banner from stdout (the daemon prints it only once
    the socket is bound), optionally waits for ``/healthz``, and yields a
    :class:`CliServer`.  Teardown escalates: SIGTERM, then ``communicate``
    with a timeout, then SIGKILL — no orphan servers, whatever the test
    body did (including having called :meth:`CliServer.stop` itself).
    """
    run_env = dict(os.environ, **(env or {}))
    run_env["PYTHONPATH"] = (
        SRC_DIR + os.pathsep + run_env["PYTHONPATH"]
        if run_env.get("PYTHONPATH")
        else SRC_DIR
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "server", *cli_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=run_env,
    )
    try:
        banner = proc.stdout.readline()
        matched = BANNER_RE.search(banner)
        if matched is None:
            proc.kill()
            _, err = proc.communicate(timeout=15)
            raise AssertionError(f"no address banner in {banner!r}; stderr: {err}")
        server = CliServer(proc, banner, int(matched.group(1)))
        if wait_ready:
            from repro.server.client import ServerClient

            with ServerClient(port=server.port) as client:
                client.wait_until_ready(timeout=ready_timeout)
        yield server
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.communicate(timeout=15)
            except subprocess.TimeoutExpired:  # pragma: no cover - hung server
                proc.kill()
                proc.communicate(timeout=15)


def table_row(result: MiningResult) -> QualityRow:
    """*result* as a Table-I row, whose hit and expansion ratios the tables
    read; only the counts those ratios divide are filled in."""
    return QualityRow(
        world="test", seed=0, method="Us", surrogate_k=None, ipc=None, icr=None,
        fingerprint=None, originals=len(result), hits=result.hit_count,
        synonyms=result.synonym_count, precision=0.0, weighted_precision=0.0,
        coverage_increase=0.0, click_volume=0,
    )  # fmt: skip


def scored_record(candidates: list[SynonymCandidate]) -> ScoredCandidates:
    """The :class:`ScoredCandidates` record holding *candidates* as rows."""
    return ScoredCandidates(
        tuple(candidate.query for candidate in candidates),
        array("q", [candidate.ipc for candidate in candidates]),
        array("d", [candidate.icr for candidate in candidates]),
        array("q", [candidate.clicks for candidate in candidates]),
    )


class ReferenceEntry(NamedTuple):
    """One entity's mining outcome with every scored candidate as a list."""

    canonical: str
    surrogates: tuple[str, ...]
    candidates: list[SynonymCandidate]
    selected: list[SynonymCandidate]

    @classmethod
    def of(cls, entry: EntitySynonyms) -> ReferenceEntry:
        """*entry* in this shape, so that it compares field for field."""
        return cls(entry.canonical, entry.surrogates, list(entry.candidates), entry.selected)


def reference_entry(
    search_log: SearchLog, click_log: ClickLog, canonical: str, config: MinerConfig
) -> ReferenceEntry:
    """The paper's formulas (Eq. 1-4, Definition 6) spelled out per entity.

    This is the reference every mining path is held to (compare a mined
    entry through :meth:`ReferenceEntry.of`).  It reads the click
    log only through ``queries_clicking`` / ``urls_clicked_for`` /
    ``clicks_by_url`` / ``total_clicks`` — one query or URL at a time, not
    the one-walk ``intersecting`` read the miner scores from — and scores
    with the standalone IPC / ICR functions, so a wrong walk cannot be wrong
    on both sides.
    """
    surrogates = tuple(search_log.top_urls(canonical, k=config.surrogate_k))
    surrogate_set = set(surrogates)
    queries = {q for url in surrogates for q in click_log.queries_clicking(url)}
    queries.discard(canonical)
    scored = []
    for query in queries:
        clicked = click_log.urls_clicked_for(query)
        scored.append(
            SynonymCandidate(
                query=query,
                ipc=intersecting_page_count(clicked, surrogate_set),
                icr=intersecting_click_ratio(click_log.clicks_by_url(query), surrogate_set),
                clicks=click_log.total_clicks(query),
            )
        )
    scored.sort(key=lambda candidate: (-candidate.clicks, candidate.query))
    selected = [
        candidate
        for candidate in scored
        if candidate.ipc >= config.ipc_threshold and candidate.icr >= config.icr_threshold
    ]
    return ReferenceEntry(canonical, surrogates, scored, selected)


def assert_mining_paths_agree(
    search_log: SearchLog, click_log: ClickLog, values: list[str], config: MinerConfig
) -> None:
    """Every mining path must reproduce :func:`reference_entry`.

    Held to it: ``SynonymMiner.mine`` and ``mine_iter`` and
    ``IncrementalSynonymMiner.refresh``.  *values* must be distinct
    canonicals.
    """
    reference = [reference_entry(search_log, click_log, value, config) for value in values]
    logs = {"click_log": click_log, "search_log": search_log, "config": config}
    incremental = IncrementalSynonymMiner(**logs)
    incremental.track(values)
    incremental.refresh()
    paths = {
        "SynonymMiner.mine": list(SynonymMiner(**logs).mine(values)),
        "SynonymMiner.mine_iter": list(SynonymMiner(**logs).mine_iter(values)),
        # refresh() mines in sorted order; compare in catalog order.
        "incremental refresh": [incremental.result[value] for value in values],
    }
    for name, entries in paths.items():
        assert [ReferenceEntry.of(entry) for entry in entries] == reference, name


@pytest.fixture(scope="session")
def toy_world() -> SimulatedWorld:
    """A small but complete simulated world shared by the whole session."""
    return build_world(WorldConfig.toy())


@pytest.fixture(scope="session")
def toy_rows(toy_world):
    """The quality grid's movies points, with the toy world standing in for movies."""
    from repro.eval.experiments import run_quality

    return run_quality({"movies": toy_world})


@pytest.fixture()
def mini_corpus() -> Corpus:
    """Four handcrafted pages: two about one movie, one about another, one generic."""
    return Corpus(
        [
            WebPage(
                url="https://studio.example.com/indy-4",
                title="Indiana Jones and the Kingdom of the Crystal Skull - official site",
                body="Indiana Jones returns. Also known as Indy 4, Indiana Jones 4.",
                site="studio.example.com",
                entity_id="movie-indy4",
            ),
            WebPage(
                url="https://wiki.example.org/indy-4",
                title="Indiana Jones and the Kingdom of the Crystal Skull - encyclopedia",
                body="The fourth Indiana Jones film, released in 2008.",
                site="wiki.example.org",
                entity_id="movie-indy4",
            ),
            WebPage(
                url="https://studio.example.com/madagascar-2",
                title="Madagascar Escape 2 Africa - official site",
                body="The animals escape to Africa in Madagascar 2.",
                site="studio.example.com",
                entity_id="movie-mada2",
            ),
            WebPage(
                url="https://magazine.example.com/box-office",
                title="Box office analysis for 2008",
                body="A look at the year in film with no particular movie in focus.",
                site="magazine.example.com",
                entity_id=None,
            ),
        ]
    )


@pytest.fixture()
def mini_engine(mini_corpus) -> SearchEngine:
    """Search engine over :func:`mini_corpus`."""
    return SearchEngine(mini_corpus)


@pytest.fixture()
def mini_search_log() -> SearchLog:
    """Handcrafted Search Data for the canonical Indy-4 string."""
    canonical = "indiana jones and the kingdom of the crystal skull"
    return SearchLog.from_tuples(
        [
            (canonical, "https://studio.example.com/indy-4", 1),
            (canonical, "https://wiki.example.org/indy-4", 2),
            (canonical, "https://magazine.example.com/box-office", 3),
        ]
    )


@pytest.fixture()
def mini_click_log() -> ClickLog:
    """Handcrafted Click Data with a synonym, a hypernym and a related query.

    * ``"indy 4"``          — clicks concentrated on the two surrogates
      (high IPC, high ICR: a true synonym);
    * ``"indiana jones"``   — clicks split between a surrogate and an
      off-surrogate franchise page (hypernym profile: low ICR);
    * ``"harrison ford"``   — clicks mostly elsewhere (related profile).
    """
    return ClickLog.from_tuples(
        [
            ("indy 4", "https://studio.example.com/indy-4", 60),
            ("indy 4", "https://wiki.example.org/indy-4", 30),
            ("indiana jones", "https://studio.example.com/indy-4", 20),
            ("indiana jones", "https://fan.example.net/raiders", 70),
            ("harrison ford", "https://bio.example.com/harrison-ford", 90),
            ("harrison ford", "https://studio.example.com/indy-4", 5),
            ("indiana jones and the kingdom of the crystal skull",
             "https://studio.example.com/indy-4", 10),
        ]
    )
