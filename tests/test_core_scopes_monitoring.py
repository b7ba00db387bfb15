"""Tests for scope bookkeeping and the monitoring window (§2, §3.4)."""

import numpy as np
import pytest

from reference_impls import QueryScopes, pairwise_intersections
from repro.core import QueryMonitor, ScopeStore, query_cut, query_cut_excess


class TestScopeStore:
    """The §2 definitions on hand-computed cases."""

    def test_add_and_query(self):
        store = ScopeStore()
        store.add_activations(1, [0, 1, 2])
        store.add_activations(1, [2, 3])
        assert store.scope_array(1).tolist() == [0, 1, 2, 3]
        assert store.global_scope_size(1) == 4

    def test_unknown_query_empty(self):
        store = ScopeStore()
        assert store.scope_array(9).size == 0
        assert store.global_scope_size(9) == 0

    def test_local_scope_derivation(self):
        store = ScopeStore()
        store.add_activations(1, [0, 1, 2, 3])
        assignment = np.array([0, 0, 1, 1])
        scope = store.scope_array(1)
        assert scope[assignment[scope] == 0].tolist() == [0, 1]
        sizes, qids = store.local_size_matrix(assignment, 2)
        assert qids.tolist() == [1]
        assert sizes.tolist() == [[2, 2]]

    def test_spanning_workers(self):
        store = ScopeStore()
        store.add_activations(1, [0, 3])
        assignment = np.array([0, 0, 1, 1])
        sizes, _qids = store.local_size_matrix(assignment, 2)
        assert np.flatnonzero(sizes[0]).tolist() == [0, 1]

    def test_query_cut_metric(self):
        store = ScopeStore()
        store.add_activations(1, [0, 1])   # fully on worker 0
        store.add_activations(2, [1, 2, 3])  # spans both workers
        assignment = np.array([0, 0, 1, 1])
        sizes, _qids = store.local_size_matrix(assignment, 2)
        spans = np.count_nonzero(sizes, axis=1)
        assert int(spans.sum()) == 3
        assert int(spans.sum() - np.count_nonzero(spans)) == 1
        scopes = {q: set(store.scope_array(q).tolist()) for q in store.queries()}
        assert query_cut(scopes, assignment, 2) == 3
        assert query_cut_excess(scopes, assignment, 2) == 1

    def test_drop(self):
        store = ScopeStore()
        store.add_activations(1, [0])
        store.drop(1)
        assert store.queries() == []


class TestQueryScopes:
    """The same hand-computed cases on the set-based oracle the store is
    checked against (``reference_impls.QueryScopes``)."""

    def test_add_and_query(self):
        qs = QueryScopes()
        qs.add_activations(1, [0, 1, 2])
        qs.add_activations(1, [2, 3])
        assert qs.global_scope(1) == {0, 1, 2, 3}
        assert qs.global_scope_size(1) == 4

    def test_unknown_query_empty(self):
        qs = QueryScopes()
        assert qs.global_scope(9) == set()
        assert qs.global_scope_size(9) == 0

    def test_local_scope_derivation(self):
        qs = QueryScopes()
        qs.add_activations(1, [0, 1, 2, 3])
        assignment = np.array([0, 0, 1, 1])
        assert {v for v in qs.global_scope(1) if assignment[v] == 0} == {0, 1}
        assert qs.local_scope_sizes(1, assignment, 2).tolist() == [2, 2]

    def test_spanning_workers(self):
        qs = QueryScopes()
        qs.add_activations(1, [0, 3])
        assignment = np.array([0, 0, 1, 1])
        assert qs.spanning_workers(1, assignment) == {0, 1}

    def test_query_cut_metric(self):
        qs = QueryScopes()
        qs.add_activations(1, [0, 1])   # fully on worker 0
        qs.add_activations(2, [1, 2, 3])  # spans both workers
        assignment = np.array([0, 0, 1, 1])
        assert qs.query_cut(assignment) == 3
        assert qs.query_cut_excess(assignment) == 1

    def test_drop(self):
        qs = QueryScopes()
        qs.add_activations(1, [0])
        qs.drop(1)
        assert qs.queries() == []


def store_intersections(scopes, min_overlap=1):
    """``ScopeStore.pairwise_intersections`` of a ``query -> vertices`` map."""
    store = ScopeStore()
    for qid, scope in scopes.items():
        store.add_activations(qid, sorted(scope))
    return store.pairwise_intersections(min_overlap)


@pytest.mark.parametrize(
    "intersections",
    [store_intersections, pairwise_intersections],
    ids=["store", "oracle"],
)
class TestPairwiseIntersections:
    def test_shared_vertices_counted(self, intersections):
        scopes = {1: {0, 1, 2}, 2: {1, 2, 3}, 3: {9}}
        out = intersections(scopes)
        assert out == {(1, 2): 2}

    def test_min_overlap_filter(self, intersections):
        scopes = {1: {0}, 2: {0}, 3: {0}}
        out = intersections(scopes, min_overlap=2)
        assert out == {}

    def test_triple_overlap_counts_pairs(self, intersections):
        scopes = {1: {5}, 2: {5}, 3: {5}}
        out = intersections(scopes)
        assert out == {(1, 2): 1, (1, 3): 1, (2, 3): 1}

    def test_empty(self, intersections):
        assert intersections({}) == {}


class TestQueryMonitor:
    def test_locality_tracking(self):
        m = QueryMonitor(window=100.0)
        m.record_start(1, 0.0)
        m.record_iteration(1, 1, 1.0)
        m.record_iteration(1, 3, 2.0)
        stats = m.stats(1)
        assert stats.iterations == 2
        assert stats.local_iterations == 1
        assert stats.locality == pytest.approx(0.5)

    def test_average_locality(self):
        m = QueryMonitor(window=100.0)
        for qid, involved in [(1, 1), (2, 4)]:
            m.record_start(qid, 0.0)
            m.record_iteration(qid, involved, 1.0)
        assert m.average_locality() == pytest.approx(0.5)

    def test_average_locality_no_data(self):
        m = QueryMonitor()
        assert m.average_locality() == 1.0

    def test_window_eviction_covers_idle_running(self):
        """A long-running query idle past the window is evicted too — it
        used to be pinned forever (leaking its scope-store entry), which
        becomes a real leak once graph churn can delete its vertices."""
        m = QueryMonitor(window=10.0)
        m.record_start(1, 0.0)
        m.record_iteration(1, 1, 0.0)
        m.record_finish(1, 1.0)
        m.record_start(2, 0.0)  # never finishes, never reports again
        evicted = m.evict_stale(now=50.0)
        assert sorted(evicted) == [1, 2]
        assert m.tracked_queries() == []

    def test_window_eviction_keeps_active_running(self):
        m = QueryMonitor(window=10.0)
        m.record_start(1, 0.0)
        m.record_iteration(1, 2, 45.0)  # recent activity keeps it tracked
        m.record_start(2, 0.0)  # idle running: evicted
        assert m.evict_stale(now=50.0) == [2]
        assert m.tracked_queries() == [1]

    def test_window_evicted_running_query_is_retracked_on_report(self):
        m = QueryMonitor(window=10.0)
        m.record_start(1, 0.0)
        assert m.evict_stale(now=50.0) == [1]
        m.record_iteration(1, 1, 51.0)  # late report re-tracks from scratch
        stats = m.stats(1)
        assert stats is not None and stats.iterations == 1

    def test_recent_finished_not_evicted(self):
        m = QueryMonitor(window=10.0)
        m.record_start(1, 0.0)
        m.record_finish(1, 5.0)
        assert m.evict_stale(now=8.0) == []

    def test_max_queries_cap(self):
        m = QueryMonitor(window=1e9, max_queries=3)
        for qid in range(5):
            m.record_start(qid, float(qid))
            m.record_finish(qid, float(qid))
        assert len(m) == 3
        # oldest finished entries evicted first
        assert m.tracked_queries() == [2, 3, 4]

    def test_cap_evicts_running_as_last_resort(self):
        m = QueryMonitor(window=1e9, max_queries=2)
        for qid in range(4):
            m.record_start(qid, float(qid))
        assert len(m) == 2

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            QueryMonitor(window=0.0)
        with pytest.raises(ValueError):
            QueryMonitor(max_queries=0)

    def test_iteration_on_unseen_query_registers_it(self):
        m = QueryMonitor()
        m.record_iteration(7, 2, 1.0)
        assert m.stats(7).iterations == 1

    def test_cap_large_scale_no_quadratic_blowup(self):
        """Regression: 10k inserts against a large cap stay fast.

        The former implementation ran two full sorts of the table per
        over-cap insert (quadratic overall); the heap-based eviction keeps
        this loop well under a second.
        """
        import time

        cap = 5000
        m = QueryMonitor(window=1e9, max_queries=cap)
        t0 = time.perf_counter()
        for qid in range(10_000):
            m.record_start(qid, float(qid))
            m.record_finish(qid, float(qid))
        elapsed = time.perf_counter() - t0
        assert len(m) == cap
        # oldest finished entries were evicted first
        assert m.tracked_queries() == list(range(5000, 10_000))
        assert elapsed < 2.5

    def test_cap_mixed_running_and_finished(self):
        m = QueryMonitor(window=1e9, max_queries=3)
        m.record_start(0, 0.0)  # stays running
        for qid in (1, 2, 3):
            m.record_start(qid, float(qid))
            m.record_finish(qid, float(qid))
        # start(3) pushed the table over cap: oldest finished (1) evicted,
        # the running query 0 survives
        assert m.tracked_queries() == [0, 2, 3]
        m.record_start(4, 4.0)
        assert m.tracked_queries() == [0, 3, 4]

    def test_cap_restarted_query_not_evicted_via_stale_heap_entry(self):
        """A restarted query's old finished record must not shadow it."""
        m = QueryMonitor(window=1e9, max_queries=2)
        m.record_start(0, 0.0)
        m.record_finish(0, 0.0)
        m.record_start(0, 10.0)  # restarted: running again
        m.record_start(1, 11.0)
        m.record_finish(1, 11.0)
        m.record_start(2, 12.0)
        # the only evictable finished entry is 1; the stale heap record for
        # the restarted query 0 must be skipped
        assert m.tracked_queries() == [0, 2]

    def test_window_eviction_bounds_heap_size(self):
        """Regression: stale heap entries are compacted by evict_stale.

        With window eviction keeping the table below the cap, finished-heap
        tuples were never popped and accumulated for the process lifetime.
        """
        m = QueryMonitor(window=1.0, max_queries=10_000)
        for qid in range(5000):
            now = float(qid)
            m.record_start(qid, now)
            m.record_finish(qid, now)
            m.evict_stale(now)
        assert len(m) <= 3
        assert len(m._finished_heap) <= 64

    def test_cap_reactivated_finished_query_uses_fresh_activity(self):
        m = QueryMonitor(window=1e9, max_queries=2)
        m.record_start(0, 0.0)
        m.record_finish(0, 0.0)
        m.record_start(1, 1.0)
        m.record_finish(1, 1.0)
        # late straggler iteration bumps query 0 past query 1
        m.record_iteration(0, 1, 5.0)
        m.record_start(2, 6.0)
        # query 1 is now the oldest finished entry
        assert m.tracked_queries() == [0, 2]
