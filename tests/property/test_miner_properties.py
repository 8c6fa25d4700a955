"""Property-based tests for the miner's invariants on arbitrary small logs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clicklog.log import ClickLog, SearchLog
from repro.core.config import MinerConfig
from repro.core.pipeline import SynonymMiner

CANONICAL = "the example entity title"

urls = [f"https://site{i}.example" for i in range(8)]
queries = ["alias one", "alias two", "broader term", "unrelated query", CANONICAL]

search_tuples = st.lists(
    st.tuples(st.just(CANONICAL), st.sampled_from(urls), st.integers(1, 10)),
    max_size=12,
)
click_tuples = st.lists(
    st.tuples(st.sampled_from(queries), st.sampled_from(urls), st.integers(1, 30)),
    max_size=40,
)
ipc_thresholds = st.integers(0, 6)
icr_thresholds = st.floats(0.0, 1.0)


def _build_miner(search, clicks, ipc, icr, k=10):
    # Deduplicate (query, rank) pairs so the search log stays a valid ranking.
    seen_ranks = set()
    deduped = []
    for query, url, rank in search:
        if (query, rank) in seen_ranks:
            continue
        seen_ranks.add((query, rank))
        deduped.append((query, url, rank))
    return SynonymMiner(
        click_log=ClickLog.from_tuples(clicks),
        search_log=SearchLog.from_tuples(deduped),
        config=MinerConfig(surrogate_k=k, ipc_threshold=ipc, icr_threshold=icr),
    )


class TestMinerInvariants:
    @settings(max_examples=60)
    @given(search_tuples, click_tuples, ipc_thresholds, icr_thresholds)
    def test_selected_is_subset_of_candidates(self, search, clicks, ipc, icr):
        entry = _build_miner(search, clicks, ipc, icr).mine_one(CANONICAL)
        scored_queries = {candidate.query for candidate in entry.candidates}
        assert set(entry.synonyms) <= scored_queries

    @settings(max_examples=60)
    @given(search_tuples, click_tuples, ipc_thresholds, icr_thresholds)
    def test_selected_candidates_respect_thresholds(self, search, clicks, ipc, icr):
        entry = _build_miner(search, clicks, ipc, icr).mine_one(CANONICAL)
        for candidate in entry.selected:
            assert candidate.ipc >= ipc
            assert candidate.icr >= icr

    @settings(max_examples=60)
    @given(search_tuples, click_tuples, ipc_thresholds, icr_thresholds)
    def test_canonical_never_selected_for_itself(self, search, clicks, ipc, icr):
        entry = _build_miner(search, clicks, ipc, icr).mine_one(CANONICAL)
        assert CANONICAL not in entry.synonyms

    @settings(max_examples=40)
    @given(search_tuples, click_tuples, st.integers(0, 4), st.floats(0.0, 0.5))
    def test_tightening_thresholds_never_adds_synonyms(self, search, clicks, ipc, icr):
        miner = _build_miner(search, clicks, ipc, icr)
        loose = miner.mine_one(CANONICAL)
        tight = MinerConfig(ipc_threshold=ipc + 2, icr_threshold=min(icr + 0.3, 1.0))
        tight_selector_result = miner.reselect(miner.mine([CANONICAL]), tight)
        assert set(tight_selector_result[CANONICAL].synonyms) <= set(loose.synonyms)

    @settings(max_examples=40)
    @given(search_tuples, click_tuples, ipc_thresholds, icr_thresholds)
    def test_candidate_scores_are_valid(self, search, clicks, ipc, icr):
        entry = _build_miner(search, clicks, ipc, icr).mine_one(CANONICAL)
        surrogate_count = len(entry.surrogates)
        for candidate in entry.candidates:
            assert 0.0 <= candidate.icr <= 1.0
            assert 0 <= candidate.ipc <= surrogate_count
            assert candidate.clicks >= 0

    @settings(max_examples=40)
    @given(search_tuples, click_tuples)
    def test_ipc_zero_icr_zero_selects_every_candidate(self, search, clicks):
        entry = _build_miner(search, clicks, 0, 0.0).mine_one(CANONICAL)
        assert len(entry.selected) == len(entry.candidates)


class TestReselect:
    @settings(max_examples=60)
    @given(search_tuples, click_tuples, st.integers(1, 10),
           ipc_thresholds, icr_thresholds, ipc_thresholds, icr_thresholds)
    def test_reselect_equals_mining_at_the_new_config(
        self, search, clicks, k, base_ipc, base_icr, ipc, icr
    ):
        # What the quality sweep relies on at every grid point: re-filtering
        # a result mined at one (β, γ) is mining afresh at another.
        base = _build_miner(search, clicks, base_ipc, base_icr, k=k)
        config = MinerConfig(surrogate_k=k, ipc_threshold=ipc, icr_threshold=icr)
        reselected = base.reselect(base.mine([CANONICAL]), config)[CANONICAL]
        fresh = SynonymMiner(
            click_log=base.click_log, search_log=base.search_log, config=config
        ).mine_one(CANONICAL)
        assert reselected.canonical == fresh.canonical
        assert reselected.surrogates == fresh.surrogates
        assert reselected.candidates == fresh.candidates
        assert reselected.selected == fresh.selected
