"""Tests for SearchLog and ClickLog."""

from repro.clicklog.log import ClickLog, SearchLog
from repro.clicklog.records import ClickRecord, SearchRecord


class TestSearchLog:
    def test_top_urls_in_rank_order(self, mini_search_log):
        canonical = "indiana jones and the kingdom of the crystal skull"
        urls = mini_search_log.top_urls(canonical)
        assert urls == [
            "https://studio.example.com/indy-4",
            "https://wiki.example.org/indy-4",
            "https://magazine.example.com/box-office",
        ]

    def test_top_urls_k_cutoff(self, mini_search_log):
        canonical = "indiana jones and the kingdom of the crystal skull"
        assert len(mini_search_log.top_urls(canonical, k=2)) == 2

    def test_unknown_query_gives_empty(self, mini_search_log):
        assert mini_search_log.top_urls("unknown query") == []

    def test_contains_and_len(self, mini_search_log):
        assert "indiana jones and the kingdom of the crystal skull" in mini_search_log
        assert len(mini_search_log) == 3

    def test_iter_records_roundtrip(self, mini_search_log):
        records = list(mini_search_log.iter_records())
        rebuilt = SearchLog(records)
        assert len(rebuilt) == len(mini_search_log)
        assert rebuilt.queries() == mini_search_log.queries()

    def test_from_tuples(self):
        log = SearchLog.from_tuples([("q", "u1", 1), ("q", "u2", 2)])
        assert log.top_urls("q") == ["u1", "u2"]


class TestClickLog:
    def test_urls_clicked_for(self, mini_click_log):
        assert mini_click_log.urls_clicked_for("indy 4") == {
            "https://studio.example.com/indy-4",
            "https://wiki.example.org/indy-4",
        }

    def test_queries_clicking(self, mini_click_log):
        queries = mini_click_log.queries_clicking("https://studio.example.com/indy-4")
        assert "indy 4" in queries and "harrison ford" in queries

    def test_click_counts(self, mini_click_log):
        assert mini_click_log.clicks("indy 4", "https://studio.example.com/indy-4") == 60
        assert mini_click_log.clicks("indy 4", "https://missing.example.com") == 0

    def test_total_clicks(self, mini_click_log):
        assert mini_click_log.total_clicks("indy 4") == 90
        assert mini_click_log.total_clicks("unknown") == 0

    def test_clicks_by_url_is_copy(self, mini_click_log):
        view = mini_click_log.clicks_by_url("indy 4")
        view["https://studio.example.com/indy-4"] = 0
        assert mini_click_log.clicks("indy 4", "https://studio.example.com/indy-4") == 60

    def test_repeated_pairs_accumulate(self):
        log = ClickLog()
        log.add(ClickRecord("q", "u", 2))
        log.add(ClickRecord("q", "u", 3))
        assert log.clicks("q", "u") == 5
        assert len(log) == 1

    def test_total_click_volume(self, mini_click_log):
        expected = sum(record.clicks for record in mini_click_log.iter_records())
        assert mini_click_log.total_click_volume() == expected

    def test_queries_and_urls_listing(self, mini_click_log):
        assert "indy 4" in mini_click_log.queries()
        assert "https://wiki.example.org/indy-4" in mini_click_log.urls()

    def test_contains(self, mini_click_log):
        assert "indy 4" in mini_click_log
        assert "unseen" not in mini_click_log


class TestSearchLogSortedCache:
    """top_urls() serves a cached sorted view, invalidated per-query by add()."""

    def test_repeated_calls_are_consistent(self, mini_search_log):
        canonical = "indiana jones and the kingdom of the crystal skull"
        first = mini_search_log.top_urls(canonical)
        assert mini_search_log.top_urls(canonical) == first
        assert mini_search_log.top_urls(canonical) is not first  # fresh list

    def test_add_invalidates_cached_view(self):
        log = SearchLog.from_tuples([("q", "u2", 2), ("q", "u3", 3)])
        assert log.top_urls("q") == ["u2", "u3"]
        log.add(SearchRecord("q", "u1", 1))
        assert log.top_urls("q") == ["u1", "u2", "u3"]

    def test_add_to_other_query_keeps_cache_valid(self):
        log = SearchLog.from_tuples([("a", "u1", 1), ("b", "u9", 1)])
        assert log.top_urls("a") == ["u1"]
        log.add(SearchRecord("b", "u8", 2))
        assert log.top_urls("a") == ["u1"]
        assert log.top_urls("b") == ["u9", "u8"]

    def test_mutating_returned_list_does_not_corrupt_cache(self):
        log = SearchLog.from_tuples([("q", "u1", 1), ("q", "u2", 2)])
        view = log.top_urls("q")
        view.append("junk")
        assert log.top_urls("q") == ["u1", "u2"]

    def test_iter_records_after_add_sees_new_record(self):
        log = SearchLog.from_tuples([("q", "u2", 2)])
        list(log.iter_records())
        log.add(SearchRecord("q", "u1", 1))
        assert [record.url for record in log.iter_records()] == ["u1", "u2"]
