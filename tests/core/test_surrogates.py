"""Tests for the surrogate set G_A(u, P) (Eq. 1), read through the miner."""

from repro.clicklog.log import ClickLog, SearchLog
from repro.core.config import MinerConfig
from repro.core.pipeline import SynonymMiner

CANONICAL = "indiana jones and the kingdom of the crystal skull"


def miner_over(search_log, k=10):
    return SynonymMiner(
        click_log=ClickLog(), search_log=search_log, config=MinerConfig(surrogate_k=k)
    )


class TestFromSearchLog:
    def test_surrogates_in_rank_order(self, mini_search_log):
        assert miner_over(mini_search_log).surrogates(CANONICAL) == (
            "https://studio.example.com/indy-4",
            "https://wiki.example.org/indy-4",
            "https://magazine.example.com/box-office",
        )

    def test_k_cutoff(self, mini_search_log):
        miner = miner_over(mini_search_log, k=2)
        assert len(miner.surrogates(CANONICAL)) == 2
        assert miner.mine_one(CANONICAL).surrogates == miner.surrogates(CANONICAL)

    def test_normalizes_the_input_value(self, mini_search_log):
        miner = miner_over(mini_search_log)
        raw = "Indiana Jones: and the Kingdom of the Crystal Skull"
        assert miner.mine_one(raw).surrogates == miner.surrogates(CANONICAL)

    def test_unknown_value_without_engine(self, mini_search_log):
        miner = miner_over(mini_search_log)
        assert miner.surrogates("unknown entity") == ()
        assert miner.mine_one("unknown entity").surrogates == ()

    def test_surrogate_set(self):
        # G_A(u, P) is a set: a page repeated in Search Data is one surrogate,
        # at its best rank.
        log = SearchLog.from_tuples(
            [(CANONICAL, "https://a.example", 3), (CANONICAL, "https://b.example", 2),
             (CANONICAL, "https://a.example", 1)]
        )
        assert miner_over(log).surrogates(CANONICAL) == ("https://a.example", "https://b.example")
