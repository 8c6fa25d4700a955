"""Property-based invariant tests for scoring and selection.

These pin down the algebra of the miner on arbitrary small logs:

* ICR is a ratio in [0, 1];
* IPC is bounded by both sides of the intersection it counts — the
  entity's surrogate set and the candidate's clicked-URL set;
* tightening β / γ can only shrink the selection (monotonicity);
* a long-lived ``ClickLog`` whose ``add()`` calls interleave with reads and
  mining answers exactly like a log rebuilt from the same records (no read
  keeps state that a later ``add()`` could leave stale);
* every mining path (``SynonymMiner.mine`` / ``mine_iter``, the harness spelling,
  ``IncrementalSynonymMiner.refresh``) reproduces the formula-level
  reference in ``tests/conftest.py``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clicklog.log import ClickLog, SearchLog
from repro.clicklog.records import ClickRecord
from repro.core.config import MinerConfig
from repro.core.pipeline import SynonymMiner
from repro.core.selection import select

from tests.conftest import assert_mining_paths_agree

CANONICAL = "the example entity title"

URLS = [f"https://site{i}.example" for i in range(8)]
QUERIES = ["alias one", "alias two", "broader term", "unrelated query", CANONICAL]

search_tuples = st.lists(
    st.tuples(st.just(CANONICAL), st.sampled_from(URLS), st.integers(1, 10)),
    max_size=12,
)
click_tuples = st.lists(
    st.tuples(st.sampled_from(QUERIES), st.sampled_from(URLS), st.integers(1, 30)),
    max_size=40,
)
# Several entities with overlapping surrogates, plus one with no Search Data.
CATALOG = [CANONICAL, "second entity", "third entity", "entity without search data"]
catalog_search_tuples = st.lists(
    st.tuples(st.sampled_from(CATALOG[:3]), st.sampled_from(URLS), st.integers(1, 10)),
    max_size=24,
)
# add a record / read one query / mine the entity, in any order.
log_operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"), st.sampled_from(QUERIES), st.sampled_from(URLS), st.integers(1, 30)
        ),
        st.tuples(st.just("read"), st.sampled_from(QUERIES)),
        st.tuples(st.just("mine")),
    ),
    max_size=40,
)
ipc_thresholds = st.integers(0, 6)
icr_thresholds = st.floats(0.0, 1.0)


def _build_logs(search, clicks):
    # Deduplicate (query, rank) pairs so the search log stays a valid ranking.
    seen_ranks = set()
    deduped = []
    for query, url, rank in search:
        if (query, rank) in seen_ranks:
            continue
        seen_ranks.add((query, rank))
        deduped.append((query, url, rank))
    return SearchLog.from_tuples(deduped), ClickLog.from_tuples(clicks)


def _miner(search_log, click_log, ipc=0, icr=0.0):
    return SynonymMiner(
        click_log=click_log,
        search_log=search_log,
        config=MinerConfig(ipc_threshold=ipc, icr_threshold=icr),
    )


class TestScoreInvariants:
    @settings(max_examples=60)
    @given(search_tuples, click_tuples)
    def test_icr_in_unit_interval(self, search, clicks):
        search_log, click_log = _build_logs(search, clicks)
        entry = _miner(search_log, click_log).mine_one(CANONICAL)
        for candidate in entry.candidates:
            assert 0.0 <= candidate.icr <= 1.0

    @settings(max_examples=60)
    @given(search_tuples, click_tuples)
    def test_ipc_bounded_by_surrogate_count(self, search, clicks):
        search_log, click_log = _build_logs(search, clicks)
        entry = _miner(search_log, click_log).mine_one(CANONICAL)
        for candidate in entry.candidates:
            assert candidate.ipc <= len(entry.surrogates)

    @settings(max_examples=60)
    @given(search_tuples, click_tuples)
    def test_ipc_bounded_by_clicked_urls(self, search, clicks):
        search_log, click_log = _build_logs(search, clicks)
        entry = _miner(search_log, click_log).mine_one(CANONICAL)
        for candidate in entry.candidates:
            assert candidate.ipc <= len(click_log.urls_clicked_for(candidate.query))

    @settings(max_examples=60)
    @given(search_tuples, click_tuples)
    def test_clicks_equal_total_volume_of_candidate(self, search, clicks):
        search_log, click_log = _build_logs(search, clicks)
        entry = _miner(search_log, click_log).mine_one(CANONICAL)
        for candidate in entry.candidates:
            assert candidate.clicks == click_log.total_clicks(candidate.query)


class TestSelectorMonotonicity:
    @settings(max_examples=60)
    @given(search_tuples, click_tuples, ipc_thresholds, ipc_thresholds,
           icr_thresholds, icr_thresholds)
    def test_tightening_thresholds_shrinks_selection(
        self, search, clicks, ipc_a, ipc_b, icr_a, icr_b
    ):
        search_log, click_log = _build_logs(search, clicks)
        entry = _miner(search_log, click_log).mine_one(CANONICAL)
        loose_ipc, tight_ipc = sorted((ipc_a, ipc_b))
        loose_icr, tight_icr = sorted((icr_a, icr_b))
        scored = entry.candidates
        columns = (scored.queries, scored.ipc, scored.icr, scored.clicks)
        loose = MinerConfig(ipc_threshold=loose_ipc, icr_threshold=loose_icr)
        tight = MinerConfig(ipc_threshold=tight_ipc, icr_threshold=tight_icr)
        loose_set = {candidate.query for candidate in select(loose, *columns)}
        tight_set = {candidate.query for candidate in select(tight, *columns)}
        assert tight_set <= loose_set

    @settings(max_examples=40)
    @given(search_tuples, click_tuples)
    def test_zero_thresholds_select_everything(self, search, clicks):
        search_log, click_log = _build_logs(search, clicks)
        entry = _miner(search_log, click_log).mine_one(CANONICAL)
        scored = entry.candidates
        open_config = MinerConfig(ipc_threshold=0, icr_threshold=0.0)
        selected = select(open_config, scored.queries, scored.ipc, scored.icr, scored.clicks)
        assert selected == list(scored)


class TestLongLivedLog:
    @settings(max_examples=60)
    @given(search_tuples, log_operations)
    def test_long_lived_log_answers_like_a_rebuilt_one(self, search, operations):
        search_log, log = _build_logs(search, [])
        miner = _miner(search_log, log)
        records = []
        for operation in operations:
            if operation[0] == "add":
                records.append(ClickRecord(*operation[1:]))
                log.add(records[-1])
                continue
            rebuilt = ClickLog(records)
            if operation[0] == "read":
                query = operation[1]
                assert log.clicks_by_url(query) == rebuilt.clicks_by_url(query)
                assert log.total_clicks(query) == rebuilt.total_clicks(query)
                assert log.intersecting(URLS) == rebuilt.intersecting(URLS)
            else:
                fresh = _miner(search_log, rebuilt)
                assert miner.mine_one(CANONICAL) == fresh.mine_one(CANONICAL)


class TestPathEquivalence:
    @settings(max_examples=60)
    @given(catalog_search_tuples, click_tuples, ipc_thresholds, icr_thresholds)
    def test_every_path_equals_the_formula_reference(self, search, clicks, ipc, icr):
        search_log, click_log = _build_logs(search, clicks)
        config = MinerConfig(ipc_threshold=ipc, icr_threshold=icr)
        assert_mining_paths_agree(search_log, click_log, CATALOG, config)
