"""Equivalence tests: array-backed ScopeStore vs the set-based QueryScopes
oracle (``tests/reference_impls.py``).

Seeded-random property tests proving the vectorized paths (incidence-CSR
aggregates, encoded-pair intersection counting) reproduce the oracles
exactly, across the edge cases: empty scopes, single query,
all-overlapping queries, and k=1.  ``TestSnapshotMemory`` pins the Q-cut
snapshot's transient memory per incidence and its output on a store of
100 k incidences.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from reference_impls import (
    QueryScopes,
    pairwise_intersections,
    reference_controller,
    reference_snapshot,
)
from repro.core import Controller, ControllerConfig, ScopeStore, scope_worker_counts
from repro.core.scopes import _count_pair_overlaps


def store_of(scopes):
    """A ScopeStore holding a ``query -> vertices`` mapping."""
    store = ScopeStore()
    for qid, scope in scopes.items():
        store.add_activations(qid, sorted(scope))
    return store


def random_workload(seed):
    """A random activation trace: (query, vertices-chunk) events."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 200))
    num_queries = int(rng.integers(1, 14))
    events = []
    for qid in range(num_queries):
        for _ in range(int(rng.integers(1, 4))):
            size = int(rng.integers(0, max(2, n // 2)))
            events.append((qid, rng.integers(0, n, size=size).tolist()))
    return n, events


def build_both(events):
    ref, store = QueryScopes(), ScopeStore()
    for qid, chunk in events:
        ref.add_activations(qid, chunk)
        store.add_activations(qid, chunk)
    return ref, store


class TestStoreEquivalence:
    @pytest.mark.parametrize("seed", range(15))
    def test_random_traces(self, seed):
        n, events = random_workload(seed)
        ref, store = build_both(events)
        rng = np.random.default_rng(seed + 100)
        k = int(rng.integers(1, 6))
        assignment = rng.integers(0, k, size=n).astype(np.int64)

        assert store.queries() == ref.queries()
        for qid in ref.queries():
            assert set(store.scope_array(qid).tolist()) == ref.global_scope(qid)
            assert store.global_scope_size(qid) == ref.global_scope_size(qid)

        # the one-pass matrix equals the per-query oracle rows
        sizes, qids = store.local_size_matrix(assignment, k)
        assert qids.tolist() == ref.queries()
        for row, qid in zip(sizes, qids):
            assert np.array_equal(row, ref.local_scope_sizes(int(qid), assignment, k))
            assert set(np.flatnonzero(row).tolist()) == ref.spanning_workers(
                int(qid), assignment
            )
        spans = np.count_nonzero(sizes, axis=1)
        assert int(spans.sum()) == ref.query_cut(assignment)
        excess = int(spans.sum() - np.count_nonzero(spans))
        assert excess == ref.query_cut_excess(assignment)
        assert np.array_equal(
            store.scope_mass(assignment, k), ref.scope_mass(assignment, k)
        )

    @pytest.mark.parametrize("seed", range(15))
    def test_drop_consistency(self, seed):
        n, events = random_workload(seed)
        ref, store = build_both(events)
        rng = np.random.default_rng(seed + 200)
        for qid in list(ref.queries()):
            if rng.random() < 0.5:
                ref.drop(qid)
                store.drop(qid)
        assignment = rng.integers(0, 3, size=n).astype(np.int64)
        assert store.queries() == ref.queries()
        sizes, _qids = store.local_size_matrix(assignment, 3)
        assert int(np.count_nonzero(sizes)) == ref.query_cut(assignment)
        scope_map = {q: ref.global_scope(q) for q in ref.queries()}
        assert store.pairwise_intersections() == pairwise_intersections(scope_map)

    def test_empty_store(self):
        store = ScopeStore()
        assignment = np.zeros(4, dtype=np.int64)
        assert store.queries() == []
        assert store.scope_array(3).size == 0
        assert store.local_size_matrix(assignment, 2)[0].shape == (0, 2)
        assert store.pairwise_intersections() == {}
        assert np.array_equal(store.scope_mass(assignment, 2), np.zeros(2, np.int64))

    def test_empty_scope_query(self):
        """A query registered with no activations behaves like the reference."""
        ref, store = build_both([(7, [])])
        assignment = np.zeros(4, dtype=np.int64)
        assert store.queries() == ref.queries() == [7]
        assert store.global_scope_size(7) == 0
        sizes, _qids = store.local_size_matrix(assignment, 1)
        assert int(np.count_nonzero(sizes)) == ref.query_cut(assignment) == 0

    def test_single_query(self):
        ref, store = build_both([(1, [0, 2, 2, 3])])
        assignment = np.array([0, 0, 1, 1])
        assert store.scope_array(1).tolist() == [0, 2, 3]
        sizes, _qids = store.local_size_matrix(assignment, 2)
        assert int(np.count_nonzero(sizes)) == ref.query_cut(assignment) == 2
        assert store.pairwise_intersections() == {}

    def test_all_overlapping(self):
        events = [(q, [0, 1, 2]) for q in range(5)]
        ref, store = build_both(events)
        assignment = np.array([0, 1, 0])
        sizes, _qids = store.local_size_matrix(assignment, 2)
        assert int(np.count_nonzero(sizes)) == ref.query_cut(assignment)
        expected = {(a, b): 3 for a in range(5) for b in range(a + 1, 5)}
        assert store.pairwise_intersections() == expected

    def test_k_equals_one(self):
        ref, store = build_both([(0, [0, 1]), (1, [1, 2])])
        assignment = np.zeros(3, dtype=np.int64)
        sizes, _qids = store.local_size_matrix(assignment, 1)
        assert np.array_equal(sizes, np.array([[2], [2]]))
        assert int(np.count_nonzero(sizes)) == ref.query_cut(assignment) == 2

    def test_query_id_subset_selection(self):
        ref, store = build_both([(0, [0, 1]), (1, [1, 2]), (2, [3])])
        assignment = np.array([0, 0, 1, 1])
        sizes, qids = store.local_size_matrix(assignment, 2, query_ids=[2, 0, 99])
        assert qids.tolist() == [2, 0]  # order preserved, unknown dropped
        assert np.array_equal(sizes[0], ref.local_scope_sizes(2, assignment, 2))
        assert np.array_equal(sizes[1], ref.local_scope_sizes(0, assignment, 2))
        mass = store.scope_mass(assignment, 2, query_ids=[0, 2])
        assert np.array_equal(mass, ref.scope_mass(assignment, 2, query_ids=[0, 2]))

    def test_incremental_ingestion_matches_bulk(self):
        bulk = ScopeStore()
        bulk.add_activations(0, range(50))
        inc = ScopeStore()
        for lo in range(0, 50, 7):
            inc.add_activations(0, range(lo, min(lo + 7, 50)))
            # interleave reads to force consolidation mid-stream
            inc.global_scope_size(0)
        assert np.array_equal(inc.scope_array(0), bulk.scope_array(0))

    def test_accepts_numpy_arrays(self):
        store = ScopeStore()
        store.add_activations(0, np.array([3, 1, 1, 2]))
        assert store.scope_array(0).tolist() == [1, 2, 3]

    def test_caller_buffer_mutation_does_not_leak(self):
        """Ingested arrays are copied, not aliased."""
        store = ScopeStore()
        buffer = np.array([1, 2, 3], dtype=np.int64)
        store.add_activations(0, buffer)
        buffer[:] = 99  # caller reuses its buffer before the next read
        assert store.scope_array(0).tolist() == [1, 2, 3]

    def test_incidence_alignment(self):
        _, store = build_both([(3, [5, 6]), (1, [7])])
        verts, counts, qids = store.incidence()
        assert qids.tolist() == [1, 3]
        assert counts.tolist() == [1, 2]
        assert verts.tolist() == [7, 5, 6]

    def test_all_rows_incidence_is_the_read_only_flat_column(self):
        """Every non-empty row in order — the default and the snapshot's
        selection — hands out the cached column itself, which no caller can
        write; any other selection gets a gathered copy."""
        _, store = build_both([(3, [5, 6]), (1, [7]), (4, [])])
        for selection in (None, [1, 3], [1, 3, 4]):
            verts, _counts, _qids = store.incidence(selection)
            assert verts.tolist() == [7, 5, 6]
            assert not verts.flags.writeable
            with pytest.raises(ValueError):
                verts[0] = 0
        assert store.incidence([1, 3])[0] is store.incidence()[0]
        for selection in ([3, 1], [3], [1, 1, 3]):
            verts, _counts, _qids = store.incidence(selection)
            assert verts.flags.writeable
        assert store.incidence([3, 1])[0].tolist() == [5, 6, 7]
        assert store.incidence([1, 1, 3])[0].tolist() == [7, 7, 5, 6]


class TestPairwiseEquivalence:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_scopes(self, seed):
        rng = np.random.default_rng(seed)
        scopes = {
            q: set(rng.integers(0, 60, size=rng.integers(0, 50)).tolist())
            for q in range(rng.integers(0, 15))
        }
        store = store_of(scopes)
        for min_overlap in (1, 2, 5):
            assert store.pairwise_intersections(
                min_overlap
            ) == pairwise_intersections(scopes, min_overlap)

    def test_store_restricted_to_query_subset(self):
        _, store = build_both([(0, [0, 1]), (1, [0, 2]), (2, [0])])
        full = store.pairwise_intersections()
        assert full == {(0, 1): 1, (0, 2): 1, (1, 2): 1}
        assert store.pairwise_intersections(query_ids=[0, 1]) == {(0, 1): 1}

    def test_unsorted_query_subset_keeps_reference_orientation(self):
        """Pair keys stay (qi < qj) even for an unsorted id selection."""
        events = [(11, [0, 1]), (3, [0, 2]), (7, [0, 1, 2])]
        ref, store = build_both(events)
        scope_map = {q: ref.global_scope(q) for q in (11, 3, 7)}
        expected = pairwise_intersections(scope_map)
        assert store.pairwise_intersections(query_ids=[11, 3, 7]) == expected
        assert all(a < b for a, b in expected)

    def test_chunked_expansion_matches_single_chunk(self):
        """Tiny chunk budget exercises the multi-chunk merge path."""
        rng = np.random.default_rng(3)
        scopes = {q: set(rng.integers(0, 30, size=25).tolist()) for q in range(10)}
        qids = sorted(scopes)
        arrays = [np.unique(np.array(sorted(scopes[q]))) for q in qids]
        verts = np.concatenate(arrays)
        rows = np.repeat(
            np.arange(len(qids)), np.array([a.size for a in arrays])
        ).astype(np.int64)
        chunked = _count_pair_overlaps(
            verts, rows, np.asarray(qids), 1, max_pairs_per_chunk=7
        )
        assert chunked == pairwise_intersections(scopes)

    def test_sparse_accumulator_fallback(self):
        """Above the dense-key threshold the sort-merge path must agree."""
        num_q = 3_000  # num_q^2 > the 4M dense accumulator cap
        out = store_of({q: {q, q + 1} for q in range(num_q)}).pairwise_intersections()
        assert len(out) == num_q - 1
        assert out[(0, 1)] == 1
        assert out[(num_q - 2, num_q - 1)] == 1

    def test_disjoint_scopes_empty(self):
        store = store_of({0: {1}, 1: {2}})
        assert store.pairwise_intersections(min_overlap=1) == {}


class TestScopeWorkerCounts:
    def test_set_and_array_inputs_agree(self):
        assignment = np.array([0, 1, 1, 2, 0])
        scope_set = {0, 2, 3}
        scope_arr = np.array([0, 2, 3], dtype=np.int64)
        a = scope_worker_counts(scope_set, assignment, 3)
        b = scope_worker_counts(scope_arr, assignment, 3)
        assert np.array_equal(a, b)
        assert a.tolist() == [1, 1, 1]

    def test_minlength_consistent_when_high_workers_unused(self):
        """k larger than any observed owner: result still has length k."""
        assignment = np.zeros(4, dtype=np.int64)
        counts = scope_worker_counts({0, 1}, assignment, 5)
        assert counts.shape == (5,)
        assert counts.tolist() == [2, 0, 0, 0, 0]

    def test_out_of_range_owner_truncated_not_raising(self):
        """Owners >= k are ignored instead of corrupting the result shape."""
        assignment = np.array([0, 7, 7, 1])
        counts = scope_worker_counts({0, 1, 2, 3}, assignment, 2)
        assert counts.shape == (2,)
        assert counts.tolist() == [1, 1]

    def test_empty_scope(self):
        counts = scope_worker_counts(set(), np.zeros(3, np.int64), 4)
        assert counts.tolist() == [0, 0, 0, 0]


def hotspot_controller(make=Controller, n=40_000, k=8, num_queries=64, seed=11):
    """A controller tracking 64 queries around 8 hotspots (103 909
    scope incidences, scopes overlapping within a hotspot) and an
    assignment to plan it on."""
    rng = np.random.default_rng(seed)
    ctrl = make(k, ControllerConfig(seed=3))
    hotspots = rng.integers(0, n, size=8)
    for qid in range(num_queries):
        ctrl.on_query_started(qid, float(qid))
        size = int(rng.integers(2_100, 3_000))
        spread = rng.normal(0.0, 700.0, size=size).astype(np.int64)
        ctrl.scopes.add_activations(qid, (hotspots[qid % 8] + spread) % n)
    assignment = rng.integers(0, k, size=n).astype(np.int64)
    return ctrl, assignment


def capture_fragments(monkeypatch, ctrl):
    """Record the fragments and fragment vertices ``ctrl``'s next snapshot
    is finalized from."""
    seen = {}
    finalize = ctrl._finalize_snapshot

    def record(assignment, num_units, fragments, fragment_vertices):
        seen["fragments"], seen["vertices"] = fragments, fragment_vertices
        return finalize(assignment, num_units, fragments, fragment_vertices)

    monkeypatch.setattr(ctrl, "_finalize_snapshot", record)
    return seen


def incidences(ctrl):
    return sum(ctrl.scopes.global_scope_size(q) for q in ctrl.monitor.tracked_queries())


class TestSnapshotMemory:
    def test_transient_memory_is_a_few_words_per_incidence(self):
        """The snapshot — flat view, pair counting, local sizes, fragment
        grouping — peaks at <= 64 B per incidence plus 1 MiB (one pair
        chunk, the presence mask, the clustering); the builder this
        replaced took 151 B per incidence on this store."""
        ctrl, assignment = hotspot_controller()
        num_incidences = incidences(ctrl)
        assert num_incidences >= 100_000
        tracemalloc.start()
        try:
            ctrl._build_snapshot(assignment)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 64 * num_incidences + 2**20

    def test_snapshot_output_is_unchanged(self, monkeypatch):
        """The overlaps, the fragments in order and each fragment's
        ascending int64 vertices: equal to the set-based oracle's, and
        byte for byte to the digest of the presence-mask builder before
        its memory was bounded."""
        ctrl, assignment = hotspot_controller()
        seen = capture_fragments(monkeypatch, ctrl)
        pairwise = ctrl.scopes.pairwise_intersections

        def record_overlaps(*args, **kwargs):
            seen["overlaps"] = pairwise(*args, **kwargs)
            return seen["overlaps"]

        monkeypatch.setattr(ctrl.scopes, "pairwise_intersections", record_overlaps)
        ctrl._build_snapshot(assignment)
        overlaps, fragments, vertices = seen["overlaps"], seen["fragments"], seen["vertices"]

        oracle, _ = hotspot_controller(reference_controller)
        scope_map = {q: oracle.scopes.global_scope(q) for q in oracle.scopes.queries()}
        assert list(overlaps.items()) == sorted(pairwise_intersections(scope_map).items())
        want = capture_fragments(monkeypatch, oracle)
        reference_snapshot(oracle, assignment)
        assert fragments == want["fragments"]
        assert list(vertices) == list(want["vertices"])
        for key, members in vertices.items():
            assert members.dtype == np.int64
            assert members.tolist() == sorted(want["vertices"][key].tolist())

        digest = hashlib.sha256(repr(list(overlaps.items())).encode())
        digest.update(repr([
            (f.unit, f.origin_worker, f.union_size, f.weighted_size) for f in fragments
        ]).encode())
        for key, members in vertices.items():
            digest.update(repr(key).encode())
            digest.update(members.dtype.str.encode())
            digest.update(members.tobytes())
        assert digest.hexdigest() == (
            "47cd308de8f22546d7f97a9dfe6b9e8b3b136ca44aacc47161ccf509613fdfb4"
        )
