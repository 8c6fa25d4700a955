"""Property-based tests for click-log aggregation and the IPC/ICR measures."""

from hypothesis import given
from hypothesis import strategies as st

from repro.clicklog.log import ClickLog
from repro.core.selection import intersecting_click_ratio, intersecting_page_count

# A click tuple: small query/url alphabets so collisions (aggregation) happen.
query_strategy = st.sampled_from(["q1", "q2", "q3", "indy 4", "canon 350d"])
url_strategy = st.sampled_from([f"https://site{i}.example" for i in range(6)])
click_tuple_strategy = st.tuples(query_strategy, url_strategy, st.integers(1, 50))
click_log_strategy = st.lists(click_tuple_strategy, max_size=40)
url_set_strategy = st.sets(url_strategy, max_size=6)


class TestClickLogProperties:
    @given(click_log_strategy)
    def test_total_volume_equals_sum_of_tuples(self, tuples):
        log = ClickLog.from_tuples(tuples)
        assert log.total_click_volume() == sum(clicks for _q, _u, clicks in tuples)

    @given(click_log_strategy)
    def test_per_query_totals_consistent(self, tuples):
        log = ClickLog.from_tuples(tuples)
        for query in log.queries():
            assert log.total_clicks(query) == sum(log.clicks_by_url(query).values())

    @given(click_log_strategy)
    def test_reverse_index_consistent(self, tuples):
        log = ClickLog.from_tuples(tuples)
        for query in log.queries():
            for url in log.urls_clicked_for(query):
                assert query in log.queries_clicking(url)
        for url in log.urls():
            for query in log.queries_clicking(url):
                assert url in log.urls_clicked_for(query)

    @given(click_log_strategy)
    def test_iter_records_roundtrip(self, tuples):
        log = ClickLog.from_tuples(tuples)
        rebuilt = ClickLog(log.iter_records())
        assert rebuilt.total_click_volume() == log.total_click_volume()
        assert set(rebuilt.queries()) == set(log.queries())


class TestMeasureProperties:
    @given(click_log_strategy, url_set_strategy, query_strategy)
    def test_icr_bounds(self, tuples, surrogates, query):
        log = ClickLog.from_tuples(tuples)
        icr = intersecting_click_ratio(log.clicks_by_url(query), surrogates)
        assert 0.0 <= icr <= 1.0

    @given(click_log_strategy, url_set_strategy, query_strategy)
    def test_ipc_bounded_by_both_sets(self, tuples, surrogates, query):
        log = ClickLog.from_tuples(tuples)
        clicked = log.urls_clicked_for(query)
        ipc = intersecting_page_count(clicked, surrogates)
        assert ipc <= min(len(clicked), len(surrogates))

    @given(click_log_strategy, query_strategy)
    def test_full_surrogate_set_gives_icr_one(self, tuples, query):
        log = ClickLog.from_tuples(tuples)
        clicked = log.urls_clicked_for(query)
        if not clicked:
            return
        assert intersecting_click_ratio(log.clicks_by_url(query), clicked) == 1.0

    @given(click_log_strategy, url_set_strategy, url_set_strategy, query_strategy)
    def test_icr_monotone_in_surrogate_set(self, tuples, smaller, extra, query):
        log = ClickLog.from_tuples(tuples)
        larger = smaller | extra
        clicks = log.clicks_by_url(query)
        assert intersecting_click_ratio(clicks, larger) >= intersecting_click_ratio(
            clicks, smaller
        )
