"""The oracle over time: a growing click log, catalog edits, refresh, republish.

``test_oracle.py`` checks the path from one click log to the served answer.
Here a hypothesis state machine drives one ``IncrementalSynonymMiner``
through click batches, newly tracked values, catalog delistings and remaps,
refreshes and publishes (full or delta) to one path.  After every publish a
``MatchService`` watching the path must answer ``/match`` and ``/resolve``
exactly as the brute-force reference does over the cumulative logs, every
click batch must dirty exactly the tracked values it can move, and a
delta publish must ship the change set ``diff_delta`` computes against the
same base over the full entries: one delta rule, whoever writes the delta.
"""

import shutil
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule

from repro.clicklog.log import ClickLog, SearchLog
from repro.clicklog.records import ClickRecord
from repro.core.config import MinerConfig
from repro.core.incremental import IncrementalSynonymMiner
from repro.matching.index import DictionaryEntry, entries_from_mining_result
from repro.serving.artifact import SynonymArtifact
from repro.serving.delta import DictionaryDelta, delta_path_for, diff_delta
from repro.serving.service import MatchService
from repro.simulation.catalog import Entity, EntityCatalog
from repro.text.normalize import normalize

from tests.conftest import reference_entry
from tests.oracle import reference
from tests.oracle.test_oracle import LOG_URLS, log_worlds


def assert_ships_the_diff(miner, catalog, base: SynonymArtifact, sidecar: Path) -> DictionaryDelta:
    """The sidecar *miner* just published against *base* is the whole-state
    diff: same changed entities (in order, with their entries), removals,
    prior updates and target state.  Returns the shipped delta."""
    shipped = DictionaryDelta.load(sidecar)
    expected_path = sidecar.with_name("expected.delta")
    diff_delta(
        base, entries_from_mining_result(miner.result, catalog), expected_path,
        version=shipped.version, click_log=miner.click_log,
    )  # fmt: skip
    expected = DictionaryDelta.load(expected_path)
    assert shipped.base_state_hash == base.state_hash
    assert shipped.changed == expected.changed
    assert shipped.removed == expected.removed
    assert shipped.prior_updates == expected.prior_updates
    assert shipped.state_hash == expected.state_hash
    return shipped


class PublishOverTime(RuleBasedStateMachine):
    """One miner, one catalog, one published path, one watching service."""

    @initialize(world=log_worlds())
    def start(self, world):
        self.world = world
        self.search_log = SearchLog.from_tuples(world.searches)
        self.clicks = list(world.clicks)
        self.miner = IncrementalSynonymMiner(
            search_log=self.search_log, click_log=ClickLog.from_tuples(world.clicks),
            config=world.config,
        )  # fmt: skip
        # Catalog name -> entity id, None once delisted.
        self.listing: dict[str, str | None] = {
            name: f"e{number}" for number, name in enumerate(world.names)
        }
        self.remaps = 0
        self.tracked = [world.names[0]]
        self.miner.track(self.tracked)
        self.scratch = Path(tempfile.mkdtemp())
        self.path = self.scratch / "served.synart"
        self.service: MatchService | None = None
        self.served: SynonymArtifact | None = None  # the base the next delta chains on
        self.publish(delta=False)

    def teardown(self):
        if self.service is not None:
            self.service.close()
        shutil.rmtree(self.scratch, ignore_errors=True)

    def catalog(self) -> EntityCatalog:
        listed = [(name, entity_id) for name, entity_id in self.listing.items() if entity_id]
        return EntityCatalog("test", [Entity(id_, name, "test") for name, id_ in listed])

    @rule(data=st.data())
    def ingest(self, data):
        queries = sorted({query for query, _url, _n in self.world.clicks} | set(self.world.names))
        record = st.tuples(st.sampled_from(queries), st.sampled_from(LOG_URLS), st.integers(1, 30))
        self.ingest_batch(data.draw(st.lists(record, min_size=1, max_size=4)))

    @rule(data=st.data())
    def click_own_query(self, data):
        """A tracked value's own query clicks one of its surrogates, then,
        once the value is clean, a page that is not one of them.  The value
        is not a candidate of itself (Definition 6), so the second click
        must not dirty it."""
        value = normalize(data.draw(st.sampled_from(self.tracked)))
        surrogates = self.search_log.top_urls(value, k=self.world.config.surrogate_k)
        self.ingest_batch([(value, data.draw(st.sampled_from(surrogates)), 5)])
        self.miner.refresh()
        elsewhere = [url for url in LOG_URLS if url not in surrogates]
        self.ingest_batch([(value, data.draw(st.sampled_from(elsewhere)), 5)])

    def ingest_batch(self, batch) -> None:
        """Ingest *batch*; it must dirty exactly the values it can move."""
        dirty_before = self.miner.dirty_values
        self.clicks += batch
        self.miner.ingest_clicks(ClickRecord(query, url, count) for query, url, count in batch)
        assert self.miner.dirty_values == dirty_before | self.moved_by(batch)

    def moved_by(self, batch) -> set[str]:
        """The tracked values whose IPC or ICR a click of *batch* can move,
        read off Search Data and the cumulative clicks: a click landed on
        one of v's surrogates, or came from a query q != v that has by now
        clicked one of them (q is a candidate of v, Definition 6)."""
        clicked: dict[str, set[str]] = {}
        for query, url, _count in self.clicks:
            clicked.setdefault(query, set()).add(url)
        moved = set()
        for value in {normalize(name) for name in self.tracked}:
            surrogates = set(self.search_log.top_urls(value, k=self.world.config.surrogate_k))
            if any(
                url in surrogates or (query != value and clicked[query] & surrogates)
                for query, url, _count in batch
            ):
                moved.add(value)
        return moved

    @precondition(lambda self: len(self.tracked) < len(self.world.names))
    @rule(data=st.data())
    def track(self, data):
        name = data.draw(st.sampled_from([n for n in self.world.names if n not in self.tracked]))
        self.tracked.append(name)
        self.miner.track([name])

    @precondition(lambda self: any(self.listing.values()))
    @rule(data=st.data())
    def delist(self, data):
        self.listing[data.draw(st.sampled_from([n for n, e in self.listing.items() if e]))] = None

    @rule(data=st.data())
    def remap(self, data):
        self.remaps += 1
        self.listing[data.draw(st.sampled_from(self.world.names))] = f"r{self.remaps}"

    @rule()
    def refresh(self):
        self.miner.refresh()

    @rule()
    def publish_full(self):
        self.publish(delta=False)

    @rule()
    def publish_delta(self):
        self.publish(delta=True)

    def publish(self, *, delta: bool) -> None:
        """Refresh, publish, and hold the served answers to the reference."""
        self.miner.refresh()
        catalog = self.catalog()
        manifest = self.miner.publish(catalog, self.path, delta=delta)
        if delta:
            assert self.served is not None
            sidecar = delta_path_for(self.path)
            shipped = assert_ships_the_diff(self.miner, catalog, self.served, sidecar)
            self.served = self.served.apply_delta(shipped)
        else:
            self.served = SynonymArtifact.load(self.path)
        if self.service is None:
            self.service = MatchService(self.path)
        else:
            self.service.maybe_reload()
        assert self.service.artifact.state_hash == self.served.state_hash, manifest.version
        self.check_answers(catalog)

    def check_answers(self, catalog: EntityCatalog) -> None:
        """Every logged, catalogued and typo query, through /match and
        /resolve, against the reference over the cumulative logs."""
        assert self.service is not None
        click_log = ClickLog.from_tuples(self.clicks)
        tracked = {normalize(name) for name in self.tracked}
        rows = []
        for entity in catalog:
            if entity.normalized_name not in tracked:
                continue
            mined = reference_entry(
                self.search_log, click_log, entity.normalized_name, self.world.config
            )
            rows.append(DictionaryEntry(mined.canonical, entity.entity_id, "canonical"))
            rows += [
                DictionaryEntry(synonym.query, entity.entity_id, "mined", float(synonym.clicks))
                for synonym in mined.selected
            ]
        index = reference.entries(rows)
        totals: dict[str, int] = {}
        for query, _url, count in self.clicks:
            totals[query] = totals.get(query, 0) + count
        priors = reference.priors(index, totals)
        queries = self.world.names + [row.text for row in rows] + list(totals) + self.world.typos
        for query in dict.fromkeys(queries):
            found = reference.match(index, query)
            assert self.service.match(query) == found, query
            assert self.service.resolve(query) == (found, reference.rank(index, found, priors))


PublishOverTime.TestCase.settings = settings(
    max_examples=30, stateful_step_count=10, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)  # fmt: skip
TestPublishOverTime = PublishOverTime.TestCase


def test_six_toy_refreshes_ship_the_whole_state_diff(toy_world, tmp_path):
    """Six refresh + delta publish rounds over the toy world: each round
    re-mines one entity (clicks on its top surrogate) and moves another's
    prior (clicks on its canonical string, off every surrogate)."""
    miner = IncrementalSynonymMiner(
        search_log=SearchLog(toy_world.search_log.iter_records()),
        click_log=ClickLog(toy_world.click_log.iter_records()),
        config=MinerConfig(),
    )
    values = toy_world.canonical_queries()
    miner.track(values)
    miner.refresh()
    path = tmp_path / "toy.synart"
    miner.publish(toy_world.catalog, path)
    served = SynonymArtifact.load(path)
    for round_number in range(6):
        url = miner.search_log.top_urls(values[round_number], k=1)[0]
        miner.ingest_clicks([
            ClickRecord(values[round_number], url, 25),
            ClickRecord(values[-1 - round_number], "https://x.example", 4),
        ])  # fmt: skip
        assert miner.refresh()
        miner.publish(toy_world.catalog, path, delta=True)
        served = served.apply_delta(
            assert_ships_the_diff(miner, toy_world.catalog, served, delta_path_for(path))
        )
