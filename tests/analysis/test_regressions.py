"""Pinned regression tests for the true positives the analyzer found in src/.

Each test here pins one concrete bug that ``python -m repro analyze`` flagged
when it was first run against the repository, so the fixes cannot silently
regress:

* ``LatencyHistogram.count`` read ``_count`` outside the histogram lock
  (torn read against ``record()`` on another thread).
* the profile cache's ``cache_stats`` (then on ``FrozenClickIndex``, now on
  ``ClickLog``) read ``_hits``/``_misses`` outside the cache lock (a
  snapshot could pair a new ``hits`` with a stale ``misses``).
* ``merge_state`` iterated a bare set of entity ids when rebuilding the
  priors table, making the priors dict order depend on hash seeding.

Each behavioural pin is paired with a structural pin: re-analyzing the fixed
module must stay clean for the rule that caught the original bug, so undoing
the fix trips the analyzer (and the self-clean test) again.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

from repro.analysis import analyze_paths
from repro.serving.delta import _DeltaSpec, merge_state
from repro.server.metrics import LatencyHistogram

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def _findings_for(relpath: str, rule: str) -> list:
    findings = analyze_paths([REPO_SRC / relpath])
    return [finding for finding in findings if finding.rule == rule]


class TestHistogramCountUnderLock:
    def test_count_is_exact_under_concurrent_records(self):
        histogram = LatencyHistogram()
        per_thread, threads = 2000, 4

        def hammer() -> None:
            for _ in range(per_thread):
                histogram.record(0.001)

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for worker in workers:
            worker.start()
        # Reads racing the writers must never go backwards or overshoot.
        last = 0
        while any(worker.is_alive() for worker in workers):
            current = histogram.count
            assert last <= current <= per_thread * threads
            last = current
        for worker in workers:
            worker.join()
        assert histogram.count == per_thread * threads

    def test_metrics_module_stays_lock_clean(self):
        assert _findings_for("repro/server/metrics.py", "lock-guarded-attr") == []


class TestCacheStatsUnderLock:
    def test_snapshot_totals_never_regress(self, mini_click_log):
        log = mini_click_log
        queries = list(log.queries())
        stop = threading.Event()

        def lookups() -> None:
            for _ in range(300):
                for query in queries:
                    log.candidate_profile(query)
            stop.set()

        worker = threading.Thread(target=lookups)
        worker.start()
        last_total = 0
        while not stop.is_set():
            stats = log.cache_stats
            total = stats.hits + stats.misses
            assert total >= last_total
            last_total = total
        worker.join()
        stats = log.cache_stats
        assert stats.hits + stats.misses == 300 * len(queries)
        # Every query past its first lookup hits the per-query cache.
        assert stats.misses == len(queries)

    def test_concurrent_readers_lose_no_count_and_share_one_profile(self, mini_click_log):
        log = mini_click_log
        queries = list(log.queries())
        rounds, readers = 200, 6  # more readers than cores
        seen: list[dict[str, int]] = []

        def read() -> None:
            mine = {}
            for _ in range(rounds):
                for query in queries:
                    mine[query] = id(log.candidate_profile(query))
            seen.append(mine)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=read) for _ in range(readers)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        stats = log.cache_stats
        # A lost update would break the total; a raced insertion would hand
        # two readers different objects for one query.
        assert stats.hits + stats.misses == rounds * readers * len(queries)
        assert len(seen) == readers
        assert all(reader == seen[0] for reader in seen)

    def test_log_module_stays_lock_clean(self):
        assert _findings_for("repro/clicklog/log.py", "lock-guarded-attr") == []


class TestMergeStatePriorsOrder:
    BASE = [
        ("zeta alias", "zeta", "mined", 0.5),
        ("mu alias", "mu", "mined", 0.4),
        ("alpha alias", "alpha", "mined", 0.3),
    ]
    PRIORS = {"zeta": 0.9, "mu": 0.6, "alpha": 0.2}

    def test_priors_order_is_sorted_not_hash_order(self):
        delta = _DeltaSpec(
            changed=[("omega", [("omega alias", "omega", "mined", 0.7)])],
            removed=["mu"],
            prior_updates={"omega": 0.8},
        )
        merged, priors = merge_state(self.BASE, self.PRIORS, delta)
        assert priors is not None
        assert list(priors) == sorted(priors)
        assert {entry[1] for entry in merged} == set(priors)

    def test_merge_is_reproducible_across_calls(self):
        delta = _DeltaSpec(changed=[], removed=[], prior_updates={})
        first = merge_state(self.BASE, self.PRIORS, delta)
        second = merge_state(list(reversed(self.BASE))[::-1], dict(self.PRIORS), delta)
        assert first == second

    def test_delta_module_stays_set_iteration_clean(self):
        assert _findings_for("repro/serving/delta.py", "unordered-set-iteration") == []
