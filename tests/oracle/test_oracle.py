"""One oracle for every representation that answers a query.

Whatever answers — ``SynonymDictionary``, a file-backed or delta-applied
``SynonymArtifact``, ``MatchService`` (cold or warm LRU), or the daemon
over the wire — must give, field for field, what the brute-force scans in
:mod:`tests.oracle.reference` derive from the published rows: index
lookups, ``EntityMatch`` (fuzzy on and off) and the ranked list.  It must
hold at each of three generations, published as gen-0 (full), gen-1 (a
delta sidecar, which the services apply in memory) and gen-2 (a full
republish), and a delta-applied artifact must carry the full compile's
content hash.

Hypothesis drives the in-process legs over a small colliding vocabulary
with typo'd queries.  The daemon leg runs on two fixed cases: the toy
world's incremental miner as the publisher, and rows whose words are not
ASCII or are split by a symbol.

One more check starts a step earlier, from Search and Click logs and a
catalog: the paper's formulas (``tests.conftest.reference_entry``) feed the
brute-force reference, and the miner feeds ``IncrementalSynonymMiner.publish``
and ``MatchService``; both must answer every canonical, every selected
synonym and their typos alike.
"""

import tempfile
import time
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.clicklog.log import ClickLog, SearchLog
from repro.clicklog.records import ClickRecord, SearchRecord
from repro.core.config import MinerConfig
from repro.core.incremental import IncrementalSynonymMiner
from repro.matching.dictionary import SynonymDictionary
from repro.matching.index import DictionaryEntry, entries_from_mining_result
from repro.matching.matcher import MatchOutcome, QueryMatcher
from repro.matching.resolver import MatchResolver
from repro.server.daemon import match_payload, ranked_payload
from repro.serving.artifact import SynonymArtifact, compile_dictionary
from repro.serving.delta import DELTA_KIND, DictionaryDelta, delta_path_for, diff_delta
from repro.serving.service import MatchService
from repro.simulation.catalog import Entity, EntityCatalog
from repro.storage.artifact import ArtifactManifest
from repro.text.normalize import normalize

from tests.conftest import daemon_server, reference_entry
from tests.oracle import reference


@dataclass
class Generation:
    """Rows, the log their priors come from (``None``: no priors), and the
    publish that ships them to a path."""

    rows: list[DictionaryEntry]
    click_log: ClickLog | None
    publish: Callable[[Path], ArtifactManifest]


def row_generations(
    states: list[list[DictionaryEntry]], log: ClickLog | None
) -> Iterator[Generation]:
    """gen-1 ships as a ``diff_delta`` sidecar, gen-0 and gen-2 in full."""
    for number, rows in enumerate(states):

        def publish(path: Path, rows=rows, version=f"gen-{number}") -> ArtifactManifest:
            if version == "gen-1":
                base = SynonymArtifact.load(path)
                return diff_delta(base, rows, delta_path_for(path), version=version, click_log=log)
            manifest = compile_dictionary(rows, path, version=version, click_log=log)
            delta_path_for(path).unlink(missing_ok=True)
            return manifest

        yield Generation(rows, log, publish)


def toy_generations(world) -> Iterator[Generation]:
    """The toy world's incremental miner publishes full, delta, full; before
    gen-1 and gen-2 a new alias clicks every surrogate of one entity."""
    miner = IncrementalSynonymMiner(
        search_log=SearchLog(world.search_log.iter_records()),
        click_log=ClickLog(world.click_log.iter_records()),
        config=MinerConfig(),
    )
    values = world.canonical_queries()
    miner.track(values)
    miner.refresh()
    for number in range(3):
        if number:
            urls = miner.search_log.top_urls(values[number], k=miner.config.surrogate_k)
            miner.ingest_clicks(ClickRecord(f"oracle alias {number}", url, 25) for url in urls)
            assert values[number] in miner.refresh()
        yield Generation(
            list(entries_from_mining_result(miner.result, world.catalog)),
            miner.click_log,
            lambda path, delta=number == 1: miner.publish(world.catalog, path, delta=delta),
        )


def check(
    generations: Iterable[Generation],
    queries: list[str],
    scratch: Path,
    *,
    similarity: float = reference.SIMILARITY_THRESHOLD,
    containment: float = reference.CONTAINMENT_THRESHOLD,
    daemon: bool = False,
) -> None:
    """Publish each generation to one path and hold everything to the reference.

    The index-level matchers use the given thresholds, the services and the
    daemon the defaults.  With *daemon* a daemon watches the path too and
    is checked over the wire once it serves each generation.
    """
    path = scratch / "served.synart"
    chain = None  # the delta-applied artifact
    with ExitStack() as stack:
        for number, generation in enumerate(generations):
            index = reference.entries(generation.rows)
            log = generation.click_log
            clicks = {}
            for record in log.iter_records() if log is not None else ():
                clicks[record.query] = clicks.get(record.query, 0) + record.clicks
            priors = None if log is None else reference.priors(index, clicks)
            thresholds = {"similarity_threshold": similarity, "containment_threshold": containment}
            expected = {
                fuzzy: [reference.match(index, q, fuzzy=fuzzy, **thresholds) for q in queries]
                for fuzzy in (True, False)
            }
            served = [reference.match(index, query) for query in queries]
            resolved = [(found, reference.rank(index, found, priors)) for found in served]

            manifest = generation.publish(path)
            version = manifest.version
            # The file leg loads what was published, or a full compile of
            # the rows when the publisher shipped a sidecar.
            full, compiled = path, manifest
            if manifest.kind == DELTA_KIND:
                full = scratch / f"full-{number}.synart"
                compiled = compile_dictionary(generation.rows, full, click_log=log)
            chain = _next_delta_applied(chain, generation, manifest, path, scratch)
            assert chain.manifest.content_hash == compiled.content_hash, version

            dictionary = SynonymDictionary(generation.rows)
            indexes = {"dictionary": (dictionary, MatchResolver(dictionary, click_log=log))}
            artifacts = {
                "file": stack.enter_context(SynonymArtifact.load(full)),
                "delta": chain,
            }
            for name, artifact in artifacts.items():
                assert artifact.priors() == priors, (name, version)
                indexes[name] = (artifact, MatchResolver.from_artifact(artifact))
            for name, (answering, resolver) in indexes.items():
                where = f"{name} at {version}"
                _check_index(where, answering, index, queries)
                for fuzzy, answers in expected.items():
                    matcher = QueryMatcher(
                        answering, enable_fuzzy=fuzzy, fuzzy_similarity_threshold=similarity,
                        fuzzy_containment_threshold=containment,
                    )
                    got = list(map(matcher.match, queries))
                    _each(f"{where}, fuzzy {fuzzy}", queries, got, answers)
                _each(where, queries, [(m, resolver.rank(m)) for m in served], resolved)

            if number == 0:
                service = MatchService(path)
                stack.callback(service.close)
            else:
                assert service.maybe_reload() is True, version
            assert service.manifest.version == version
            # A published file is mapped; a delta is applied to an in-memory copy.
            assert service.artifact.is_mapped == (manifest.kind != DELTA_KIND), version
            for cache in ("cold", "warm"):
                where = f"service, {cache} cache, {version}"
                _each(where, queries, list(map(service.resolve, queries)), resolved)
                _each(where, queries, list(map(service.match, queries)), served)

            if daemon:
                if number == 0:
                    _daemon, client = stack.enter_context(
                        daemon_server(path, watch_interval=0.02)
                    )
                deadline = time.monotonic() + 10
                while client.healthz()["artifact_version"] != version:
                    assert time.monotonic() < deadline, f"the daemon never served {version}"
                    time.sleep(0.01)
                matches = [match_payload(found) for found in served]
                ranks = [{**match_payload(m), "ranked": ranked_payload(r)} for m, r in resolved]
                where = f"daemon at {version}"
                _each(where, queries, client.match_many(queries), matches)
                _each(where, queries, list(map(client.match, queries)), matches)
                _each(where, queries, client.resolve_many(queries), ranks)
                _each(where, queries, list(map(client.resolve, queries)), ranks)


def _next_delta_applied(chain, generation, manifest, path, scratch) -> SynonymArtifact:
    """The previous delta-applied artifact (before gen-0: the empty one) plus
    this generation's delta: the publisher's sidecar when it shipped one,
    else a ``diff_delta``."""
    if manifest.kind == DELTA_KIND:
        return chain.apply_delta(DictionaryDelta.load(delta_path_for(path)))
    if chain is None:
        compile_dictionary([], scratch / "empty.synart", click_log=generation.click_log)
        chain = SynonymArtifact.load(scratch / "empty.synart")
    sidecar = scratch / "chain.delta"
    diff_delta(chain, generation.rows, sidecar, version=manifest.version,
               click_log=generation.click_log)  # fmt: skip
    return chain.apply_delta(DictionaryDelta.load(sidecar))


def _each(where: str, queries: list[str], answers: list, expected: list) -> None:
    """Compare answers one by one, so a failure names its query."""
    assert len(answers) == len(expected), where
    for query, answer, wanted in zip(queries, answers, expected):
        assert answer == wanted, (where, query)


def _check_index(where: str, answering, index: list[DictionaryEntry], queries: list[str]) -> None:
    texts = [entry.text for entry in index]
    assert len(answering) == len(index), where
    _each(where, texts, list(answering), index)
    assert answering.max_entry_tokens == reference.max_entry_tokens(index), where
    for text in texts + queries + ["not in there"]:
        assert answering.lookup(text) == reference.lookup(index, text), (where, text)
        assert answering.entities_for(text) == reference.entities_for(index, text), (where, text)
        assert (text in answering) == bool(reference.lookup(index, text)), (where, text)
    for token in sorted({word for text in texts + queries for word in text.split()} | {"zzz"}):
        expected = reference.strings_containing_token(index, token)
        assert answering.strings_containing_token(token) == expected, (where, token)
        assert answering.has_token(token) == bool(expected), (where, token)
    for entity_id in sorted({entry.entity_id for entry in index} | {"ghost"}):
        found = answering.strings_for_entity(entity_id)
        assert found == reference.strings_for_entity(index, entity_id), (where, entity_id)


# Few, similar words: shared tokens, equal-similarity ties and near misses
# are the common case.  Some normalize to other text ("É" -> "e",
# "director's" -> "directors", "at&t" -> "at t", "&" -> ""), some are not
# ASCII; the shared phrases make ambiguous strings (and ranking) common.
# Letters of one, two, three and four UTF-8 bytes ("ꀀ" is U+A000, "𠀀"
# U+20000) check that lookups comparing decoded strings agree with the
# byte-sorted blocks.
WORDS = [
    "canon", "eos", "350d", "450d", "550d", "rebel", "xt", "xti", "digital", "bora",
    "a", "b", "indiana", "jones", "4", "É", "café", "director's", "камера", "日本",
    "at&t", "c++", "&", "ꀀ", "𠀀",
]  # fmt: skip
SHARED = ["canon", "rebel xt", "at&t", "日本 камера"]
ENTITIES = ["e1", "e2", "e3", "e4", "e5", "e6"]
EXTRA_QUERIES = ["", "   ", "!!", "&", "CANON EOS-350D!!"]
word = st.sampled_from(WORDS)
phrase = st.sampled_from(SHARED) | st.lists(word, min_size=1, max_size=3).map(" ".join)


def entity_rows(entity_id: str):
    source, weight = st.sampled_from(["canonical", "mined", "manual"]), st.sampled_from([1.0, 5.0])
    row = st.builds(DictionaryEntry, phrase, st.just(entity_id), source, weight)
    return st.lists(row, min_size=1, max_size=3)


@st.composite
def generations(draw) -> list[list[DictionaryEntry]]:
    """gen-0, then two in-place edits: each keeps, replaces or drops every
    entity's rows and appends new entities — the shape a delta reproduces
    content hash for content hash.  An entity whose every text normalizes
    to nothing is not in the index, so it is left out, not kept in place."""

    def add(state, entity_id, rows):
        if any(normalize(row.text) for row in rows):
            state[entity_id] = rows

    current: dict[str, list[DictionaryEntry]] = {}
    for entity_id in draw(st.lists(st.sampled_from(ENTITIES), max_size=4, unique=True)):
        add(current, entity_id, draw(entity_rows(entity_id)))
    states = [current]
    for _ in range(2):
        edited: dict[str, list[DictionaryEntry]] = {}
        for entity_id, rows in current.items():
            action = draw(st.sampled_from(["keep", "replace", "drop"]))
            if action != "drop":
                add(edited, entity_id, rows if action == "keep" else draw(entity_rows(entity_id)))
        fresh = [entity_id for entity_id in ENTITIES if entity_id not in current]
        for entity_id in draw(st.permutations(fresh))[: draw(st.integers(0, 2))]:
            add(edited, entity_id, draw(entity_rows(entity_id)))
        current = edited
        states.append(current)
    return [[row for rows in state.values() for row in rows] for state in states]


@st.composite
def typo_queries(draw, texts: list[str]) -> str:
    """A dictionary string with a few character edits and token-level noise."""
    base = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(base)))
        letter = draw(st.sampled_from("abcdx5 é"))
        base = draw(st.sampled_from([
            base[:at] + letter + base[at:],  # insert
            base[:at] + base[at + 1 :],  # delete
            base[:at] + letter + base[at + 1 :],  # replace
            base[:at] + base[at : at + 2][::-1] + base[at + 2 :],  # swap
        ]))  # fmt: skip
    tokens = base.split(" ")
    if draw(st.booleans()):  # a duplicated query token must not count twice
        tokens.append(draw(st.sampled_from(tokens)))
    if draw(st.booleans()):  # context word: something remains beside the mention
        context = word | st.text(alphabet="abcd1", min_size=1, max_size=5)
        tokens.insert(draw(st.integers(0, len(tokens))), draw(context))
    return " ".join(tokens)


@dataclass
class Case:
    generations: list[list[DictionaryEntry]]
    clicks: list[tuple[str, int]]
    queries: list[str]
    similarity: float = reference.SIMILARITY_THRESHOLD
    containment: float = reference.CONTAINMENT_THRESHOLD
    with_priors: bool = True

    def run(self, scratch: Path, *, daemon: bool = False) -> None:
        log = ClickLog.from_tuples((query, "https://c.example/", n) for query, n in self.clicks)
        texts = [row.text for rows in self.generations for row in rows]
        queries = list(dict.fromkeys(self.queries + texts + EXTRA_QUERIES))
        states = row_generations(self.generations, log if self.with_priors else None)
        check(states, queries, scratch, similarity=self.similarity,
              containment=self.containment, daemon=daemon)  # fmt: skip


@st.composite
def cases(draw) -> Case:
    states = draw(generations())
    texts = [row.text for rows in states for row in rows] or ["canon"]
    click_queries = st.sampled_from(texts + [normalize(text) or "x" for text in texts])
    # 1/2 and 1/3: a two- or three-word string sharing one word with the
    # query sits exactly on the containment threshold.
    thresholds = st.sampled_from((0.0, 1 / 3, 0.5, 0.6, 0.84, 1.0))
    return Case(
        states,
        draw(st.lists(st.tuples(click_queries, st.integers(1, 50)), max_size=6)),
        draw(st.lists(typo_queries(texts), max_size=8)),
        draw(thresholds), draw(thresholds), draw(st.booleans()),
    )  # fmt: skip


def _rows(*pairs: tuple[str, str]) -> list[DictionaryEntry]:
    return [DictionaryEntry(text, entity_id) for text, entity_id in pairs]


# A query identical to a dictionary string is an EXACT match, whatever its
# script or symbols ("at&t", "c++" and Cyrillic or CJK text once fell back
# to the fuzzy path, or missed, because they had no token).  "canon" is
# ambiguous, and "canon rebel" ranks by context.
SCRIPTS_AND_SYMBOLS = Case(
    [
        _rows(("at&t", "e1"), ("c++ primer", "e2"), ("фильм 0001", "e3"), ("日本", "e4"),
              ("canon eos 350d", "c350"), ("canon", "c350"), ("canon rebel xt", "c350"),
              ("canon eos 450d", "c450"), ("canon", "c450")),
        _rows(("at&t", "e1"), ("c++ primer 2", "e2"), ("日本", "e4"), ("日本 камера", "e4"),
              ("canon eos 350d", "c350"), ("canon", "c350"), ("canon rebel xt", "c350"),
              ("canon eos 450d", "c450"), ("canon", "c450"), ("фильм 0002", "e5")),
        _rows(("at & t", "e1"), ("c++", "e2"), ("日本", "e2"), ("canon eos 350d", "c350"),
              ("canon", "c350"), ("фильм 0002", "e5"), ("камера", "e6"), ("canon", "e6")),
    ],
    [("at t", 40), ("日本", 7), ("c primer", 3), ("canon eos 450d", 12), ("камера", 5),
     ("canon", 2)],
    ["canon eos 550d", "at&t store", "日本 камера canon", "фильм 0003", "c++ primer book",
     "AT&T Wireless", "the 日本 camera", "canon rebel", "canon 450d zoom"],
)  # fmt: skip


@settings(max_examples=50, deadline=None)
@given(cases())
@example(SCRIPTS_AND_SYMBOLS)
@example(  # equally similar candidates: the smaller string wins
    Case([_rows(("canon eos 450d", "e2"), ("canon eos", "e9"))]
         + [_rows(("canon eos 450d", "e2"), ("canon eos 350d", "e1"))] * 2,
         [], ["canon eos 550d", "canon canon eos 550d", "cano", "450d"])
)  # fmt: skip
@example(  # similarity exactly on the threshold, reached by the length gap alone
    Case([_rows(("a b", "e1"))] * 3, [], ["a xxb"], similarity=0.6, containment=0.0)
)
@example(  # three deletions at the front: the optimal path runs along the band's edge
    Case([_rows(("canon eos 350d digital", "e1"))] * 3, [], ["on eos 350d digital"])
)
@example(  # one shared word of two: containment exactly on the threshold
    Case([_rows(("canon rebel", "e1"))] * 3, [], ["canon rebl"], containment=0.5)
)
@example(  # containment counts distinct words: 2 of 3 passes, 2 of 5 tokens would not
    Case([_rows(("indiana jones indiana jones 4", "e1"))] * 3, [], ["indiana jones"],
         similarity=0.0, containment=0.6)
)  # fmt: skip
@example(  # "xt xt" has one distinct word, so one shared token admits it (1/1, not 1/2)
    Case([_rows(("xt xt", "e1"), ("rebel xt digital", "e2"))] * 3, [], ["xt rebl"],
         similarity=0.0, containment=0.6)
)  # fmt: skip
def test_every_representation_answers_like_the_reference(case):
    with tempfile.TemporaryDirectory() as scratch:
        case.run(Path(scratch))


def test_the_daemon_answers_like_the_reference_across_republishes(tmp_path):
    SCRIPTS_AND_SYMBOLS.run(tmp_path, daemon=True)


def test_the_toy_worlds_publisher_is_served_like_the_reference(toy_world, tmp_path):
    queries = list(toy_world.canonical_queries())
    queries += [record.query for record in toy_world.search_log.iter_records()]
    queries += [record.query for record in toy_world.click_log.iter_records()]
    queries += ["oracle alias 1", "oracle alias 2 near me", "quinn lyraa kingdm", "THE KINGDOM!!"]
    queries = list(dict.fromkeys(queries + EXTRA_QUERIES))
    check(toy_generations(toy_world), queries, tmp_path, daemon=True)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.builds(DictionaryEntry, phrase, st.sampled_from(ENTITIES)), min_size=1))
@example(SCRIPTS_AND_SYMBOLS.generations[0])
def test_a_dictionary_string_queried_verbatim_is_an_exact_match(rows):
    matcher = QueryMatcher(SynonymArtifact.from_entries(rows), enable_fuzzy=False)
    for row in rows:
        if normalize(row.text):
            found = matcher.match(row.text)
            assert found.outcome is MatchOutcome.EXACT, row.text
            assert found.matched_text == normalize(row.text)
            assert found.entity_ids == reference.entities_for(reference.entries(rows), row.text)


# --------------------------------------------------------------------------- #
# From click log to answer: the miner half and the serving half in one check.
# --------------------------------------------------------------------------- #

# U+2028 is whitespace to normalize() but a line break to some JSON readers;
# write_jsonl writes it unescaped.
LOG_WORDS = WORDS + ["\u2028"]
LOG_URLS = [f"https://site{number}.example/" for number in range(5)]


@dataclass
class LogWorld:
    names: list[str]
    searches: list[tuple[str, str, int]]
    clicks: list[tuple[str, str, int]]
    config: MinerConfig
    typos: list[str]


@st.composite
def log_worlds(draw) -> LogWorld:
    """A catalog of one to three entity names, Search Data for the
    normalized names, and raw (unnormalized) click queries on the same few
    URLs."""
    raw = st.lists(st.sampled_from(LOG_WORDS), min_size=1, max_size=3).map(" ".join)
    names = draw(st.lists(raw.filter(normalize), min_size=1, max_size=3, unique_by=normalize))
    searches = []
    for name in names:
        urls = draw(st.lists(st.sampled_from(LOG_URLS), min_size=1, max_size=4, unique=True))
        searches += [(normalize(name), url, rank) for rank, url in enumerate(urls, start=1)]
    # A few queries with many clicks each, so that candidates clear β.
    query = raw | raw.map(str.upper) | st.sampled_from(names)
    queries = draw(st.lists(query, min_size=1, max_size=4))
    clicks = draw(st.lists(
        st.tuples(st.sampled_from(queries), st.sampled_from(LOG_URLS), st.integers(1, 30)),
        min_size=1, max_size=25,
    ))  # fmt: skip
    config = MinerConfig(
        surrogate_k=draw(st.sampled_from([2, 3, 5])),
        ipc_threshold=draw(st.integers(1, 2)),
        icr_threshold=draw(st.sampled_from([0.0, 0.25, 0.5])),
    )
    typos = draw(st.lists(typo_queries(names + queries), max_size=6))
    return LogWorld(names, searches, clicks, config, typos)


@settings(max_examples=80, deadline=None)
@given(log_worlds())
def test_the_served_answer_to_a_logged_query_is_the_formulas_answer(world):
    """Eq. 1-4 per entity (``reference_entry``) -> rows -> the brute-force
    reference, against the miner -> ``IncrementalSynonymMiner.publish`` ->
    ``MatchService``: the step where mined queries become served entries."""
    catalog = EntityCatalog(
        "test", [Entity(f"e{number}", name, "test") for number, name in enumerate(world.names)]
    )
    search_log = SearchLog.from_tuples(world.searches)
    click_log = ClickLog.from_tuples(world.clicks)
    rows = []
    for entity in catalog:
        mined = reference_entry(search_log, click_log, entity.normalized_name, world.config)
        rows.append(DictionaryEntry(mined.canonical, entity.entity_id, "canonical"))
        rows += [
            DictionaryEntry(synonym.query, entity.entity_id, "mined", float(synonym.clicks))
            for synonym in mined.selected
        ]
    index = reference.entries(rows)
    clicks: dict[str, int] = {}
    for query, _url, count in world.clicks:
        clicks[query] = clicks.get(query, 0) + count
    priors = reference.priors(index, clicks)

    miner = IncrementalSynonymMiner(
        search_log=search_log, click_log=click_log, config=world.config
    )
    miner.track(world.names)
    miner.refresh()
    by_name = catalog.by_canonical_name()
    selected = [
        (synonym.query, by_name[entry.canonical].entity_id)
        for entry in miner.result
        for synonym in entry.selected
    ]
    queries = world.names + [row.text for row in rows] + [query for query, _ in selected]
    queries = list(dict.fromkeys(queries + world.typos))

    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "served.synart"
        miner.publish(catalog, path)
        service = MatchService(path)
        try:
            for query in queries:
                found = reference.match(index, query)
                assert service.match(query) == found, query
                assert service.resolve(query) == (found, reference.rank(index, found, priors))
            # The invariant, by name: a selected synonym, queried verbatim, is
            # an exact match whose entity set contains its entity.
            for query, entity_id in selected:
                if normalize(query):
                    found = service.match(query)
                    assert found.outcome is MatchOutcome.EXACT, query
                    assert entity_id in found.entity_ids, query
        finally:
            service.close()
