"""The per-entity record of scored candidates and what it builds."""

from array import array

import pytest

from repro.core.config import MinerConfig
from repro.core.pipeline import SynonymMiner
from repro.core.selection import select
from repro.core.types import ScoredCandidates, SynonymCandidate

from tests.conftest import scored_record

ROWS = [
    SynonymCandidate("indy 4", 5, 0.9, 120),
    SynonymCandidate("indiana jones 4", 3, 0.5, 80),
    SynonymCandidate("harrison ford", 1, 0.05, 80),
]


class TestSequence:
    def test_equals_only_a_record_of_the_same_rows(self):
        record = scored_record(ROWS)
        assert record == scored_record(ROWS)
        assert not record != scored_record(ROWS)
        # A list of the same candidates is another type: compare list(record).
        assert record != ROWS and ROWS != record
        assert list(record) == ROWS

    def test_differs_from_a_different_list(self):
        record = scored_record(ROWS)
        assert record != ROWS[:2]
        assert ROWS[::-1] != record
        changed = [ROWS[0], ROWS[1], SynonymCandidate("harrison ford", 1, 0.05, 81)]
        assert record != changed
        assert changed != record
        assert record != scored_record(changed)
        assert record != tuple(ROWS)

    def test_len_and_indexing(self):
        record = scored_record(ROWS)
        assert len(record) == 3
        assert record[0] == ROWS[0]
        assert record[2] == ROWS[2]
        assert record[-1] == ROWS[-1]
        assert record[-3] == ROWS[0]
        with pytest.raises(IndexError):
            record[3]
        with pytest.raises(IndexError):
            record[-4]

    def test_slices_are_lists(self):
        record = scored_record(ROWS)
        assert record[:2] == ROWS[:2] and type(record[:2]) is list
        assert record[1:] == ROWS[1:]
        assert record[::-1] == ROWS[::-1]
        assert record[5:] == []

    def test_iteration_and_membership(self):
        record = scored_record(ROWS)
        assert list(record) == ROWS
        assert [candidate.query for candidate in record] == list(record.queries)
        assert ROWS[1] in record
        assert record.index(ROWS[2]) == 2

    def test_empty_record(self):
        empty = scored_record([])
        assert empty == scored_record([])
        assert empty != scored_record(ROWS[:1])
        assert len(empty) == 0
        assert list(empty) == []

    def test_a_materialized_out_of_range_candidate_still_raises(self):
        record = ScoredCandidates(
            ("ok", "bad"), array("q", [1, 1]), array("d", [0.5, 1.5]), array("q", [3, 2])
        )
        assert record[0] == SynonymCandidate("ok", 1, 0.5, 3)
        with pytest.raises(ValueError, match="icr"):
            record[1]
        with pytest.raises(ValueError, match="icr"):
            list(record)

    def test_selection_on_the_columns_keeps_row_order(self):
        record = scored_record(ROWS)
        columns = (record.queries, record.ipc, record.icr, record.clicks)
        for ipc, icr in ((3, 0.5), (0, 0.0), (6, 0.0), (1, 0.05)):
            config = MinerConfig(ipc_threshold=ipc, icr_threshold=icr)
            assert select(config, *columns) == [
                row for row in ROWS if row.ipc >= ipc and row.icr >= icr
            ]
        assert select(MinerConfig(ipc_threshold=3, icr_threshold=0.5), *columns) == ROWS[:2]


@pytest.fixture
def built(monkeypatch):
    """Counts every SynonymCandidate constructed while the test runs."""
    count = [0]
    original = SynonymCandidate.__init__

    def counting_init(self, *args, **kwargs):
        count[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(SynonymCandidate, "__init__", counting_init)
    return count


class TestConstructionCount:
    """The miner builds candidate objects only for what it selects."""

    def test_mine_builds_only_the_selection(self, toy_world, built):
        miner = SynonymMiner(
            click_log=toy_world.click_log, search_log=toy_world.search_log, config=MinerConfig()
        )
        result = miner.mine(toy_world.canonical_queries())
        scored = sum(len(entry.candidates) for entry in result)
        assert 0 < result.synonym_count < scored
        assert built[0] == result.synonym_count

        built[0] = 0
        reselected = miner.reselect(result, MinerConfig(ipc_threshold=2, icr_threshold=0.05))
        assert reselected.synonym_count != result.synonym_count
        assert built[0] == reselected.synonym_count

        built[0] = 0
        entry = next(entry for entry in result if len(entry.candidates) > 1)
        assert entry.candidates[-1].query == entry.candidates.queries[-1]
        assert built[0] == 1
