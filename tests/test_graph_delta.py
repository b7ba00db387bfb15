"""Tests for the streaming topology-mutation layer (GraphDelta / MutableDiGraph)."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import (
    DiGraph,
    GraphBuilder,
    GraphDelta,
    MutableDiGraph,
    NewVertexSpec,
    fresh_rebuild,
    grid_graph,
)
from repro.graph.road_network import generate_road_network


def _mutable_grid(rows=4, cols=4):
    return MutableDiGraph.from_digraph(grid_graph(rows, cols))


class TestMutableBasics:
    def test_from_digraph_is_a_deep_copy(self):
        g = grid_graph(3, 3)
        mg = MutableDiGraph.from_digraph(g)
        assert mg == g
        mg.delete_edge(0, 1)
        mg.flush()
        assert g.has_edge(0, 1), "mutating the copy touched the source"
        assert not mg.has_edge(0, 1)

    def test_reads_reflect_last_flush_only(self):
        mg = _mutable_grid()
        mg.delete_edge(0, 1)
        assert mg.has_edge(0, 1), "unflushed delta visible to reads"
        assert mg.pending_mutations == 1
        mg.flush()
        assert not mg.has_edge(0, 1)
        assert mg.pending_mutations == 0

    def test_empty_flush_is_a_noop(self):
        mg = _mutable_grid()
        before = mg.churn_epochs
        result = mg.flush()
        assert not result
        assert mg.churn_epochs == before

    def test_csr_views_invalidated_on_flush(self):
        mg = _mutable_grid()
        view = mg.csr()
        rview = mg.csr_in()
        mg.delete_edge(0, 1)
        mg.flush()
        assert mg.csr() is not view
        assert mg.csr_in() is not rview
        # the old borrowed view still references the pre-flush arrays
        assert view.indices.size == mg.num_edges + 1

    def test_weight_update(self):
        mg = _mutable_grid()
        mg.update_weight(0, 1, 7.5)
        mg.flush()
        assert mg.edge_weight(0, 1) == 7.5

    def test_weight_update_last_wins_within_one_flush(self):
        mg = _mutable_grid()
        mg.update_weight(0, 1, 7.5)
        mg.update_weight(0, 1, 3.25)
        mg.flush()
        assert mg.edge_weight(0, 1) == 3.25

    def test_insert_edge(self):
        mg = _mutable_grid()
        assert not mg.has_edge(0, 15)
        mg.insert_edge(0, 15, 2.0)
        mg.flush()
        assert mg.edge_weight(0, 15) == 2.0
        assert 0 in mg.in_neighbors(15)

    def test_negative_weights_rejected(self):
        mg = _mutable_grid()
        with pytest.raises(GraphError):
            mg.insert_edge(0, 1, -1.0)
        with pytest.raises(GraphError):
            mg.update_weight(0, 1, -1.0)

    def test_negative_weights_in_raw_delta_rejected_at_flush(self):
        """A hand-built delta must not bypass the buffering methods'
        validation; flush rejects it before touching any state."""
        for bad in (
            GraphDelta(insert_edges=[(0, 1, -5.0)]),
            GraphDelta(update_weights=[(0, 1, -9.0)]),
            GraphDelta(new_vertices=[NewVertexSpec(edges=((0, -1.0),))]),
        ):
            mg = _mutable_grid()
            edges_before = mg.num_edges
            with pytest.raises(GraphError):
                mg.apply_delta(bad)
            assert mg.num_edges == edges_before

    def test_from_digraph_carries_pending_buffer(self):
        mg = _mutable_grid()
        mg.insert_edge(0, 15, 2.0)  # buffered, not flushed
        copy = MutableDiGraph.from_digraph(mg)
        assert copy.pending_mutations == 1
        copy.flush()
        mg.flush()
        assert mg.has_edge(0, 15) and copy.has_edge(0, 15)

    def test_add_vertex_extends_coords_and_tags(self):
        rn = generate_road_network(
            num_cities=3, num_urban_vertices=200, seed=1, region_size=40.0
        )
        mg = MutableDiGraph.from_digraph(rn.graph)
        n = mg.num_vertices
        mg.add_vertex(NewVertexSpec(x=1.0, y=2.0, tag=True, edges=((0, 1.5),)))
        res = mg.flush()
        assert res.first_new_vertex == n
        assert mg.num_vertices == n + 1
        assert mg.coords.shape == (n + 1, 2)
        assert tuple(mg.coords[n]) == (1.0, 2.0)
        assert mg.tags[n]
        assert mg.has_edge(n, 0) and mg.has_edge(0, n)  # bidirectional default

    def test_remove_vertex_tombstones(self):
        mg = _mutable_grid()
        n = mg.num_vertices
        mg.remove_vertex(5)
        res = mg.flush()
        assert res.removed_vertices == (5,)
        assert mg.num_vertices == n  # id space unchanged
        assert mg.num_live_vertices == n - 1
        assert mg.out_degree(5) == 0 and mg.in_degree(5) == 0
        assert not any(5 in mg.out_neighbors(v) for v in range(n))

    def test_tolerant_application(self):
        """Conflicting mutations are skipped, not errors (change-feed replay)."""
        mg = _mutable_grid()
        mg.remove_vertex(5)
        mg.flush()
        delta = GraphDelta(
            delete_edges=[(5, 6), (0, 1)],       # (5,6) already gone
            insert_edges=[(5, 2, 1.0), (0, 2, 1.0)],  # 5 is dead
            update_weights=[(5, 6, 2.0), (1, 2, 2.0)],
            remove_vertices=[5],                  # already dead
        )
        res = mg.apply_delta(delta)
        assert res.deleted_edges == 1
        assert res.inserted_edges == 1
        assert res.updated_weights == 1
        # skipped: absent (5,6) deletion, dead-endpoint insert, dead-endpoint
        # weight update, and the repeated removal of the dead vertex itself
        assert res.skipped == 4
        assert mg.edge_weight(1, 2) == 2.0
        assert mg.has_edge(0, 2)

    def test_auto_flush_threshold(self):
        mg = MutableDiGraph.from_digraph(grid_graph(3, 3), auto_flush_threshold=2)
        mg.delete_edge(0, 1)
        assert mg.has_edge(0, 1)
        mg.delete_edge(1, 0)  # hits the threshold -> auto flush
        assert mg.pending_mutations == 0
        assert not mg.has_edge(0, 1) and not mg.has_edge(1, 0)


class TestRowsInAnyOrder:
    """``flush`` binary-searches the edge keys in canonical CSR order; a
    graph handed to the constructor with unsorted rows is valid CSR all the
    same and must flush to what its canonical twin flushes to."""

    def _twins(self):
        indptr = np.array([0, 4, 5, 7, 7])
        indices = np.array([3, 1, 2, 1, 0, 3, 1])  # rows 0 and 2 descend
        weights = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        unsorted = MutableDiGraph(indptr, indices, weights)
        return unsorted, MutableDiGraph.from_digraph(fresh_rebuild(unsorted))

    def test_updates_and_deletes_find_their_edges(self):
        delta = GraphDelta(
            update_weights=[(0, 1, 9.0), (2, 1, 8.0), (1, 3, 1.0)],
            delete_edges=[(0, 3), (2, 3), (3, 0)],
            insert_edges=[(3, 0, 0.5)],
        )
        unsorted, canonical = self._twins()
        got, want = unsorted.apply_delta(delta), canonical.apply_delta(delta)
        assert got == want
        assert (got.updated_weights, got.deleted_edges, got.skipped) == (3, 2, 2)
        assert unsorted == canonical
        assert [(u, v, w) for u, v, w in unsorted.edges()] == [
            (0, 1, 9.0), (0, 1, 9.0), (0, 2, 3.0), (1, 0, 5.0), (2, 1, 8.0), (3, 0, 0.5),
        ]


class TestRebuildEquivalence:
    """A flushed MutableDiGraph must be array-for-array identical to a
    DiGraph built fresh from the same edge list (the churn-epoch invariant)."""

    def _assert_fresh_equivalent(self, mg):
        fresh = fresh_rebuild(mg)
        assert np.array_equal(mg.indptr, fresh.indptr)
        assert np.array_equal(mg.indices, fresh.indices)
        assert np.array_equal(mg.weights, fresh.weights)
        # reverse CSR agrees with a from-scratch reverse build
        for v in range(mg.num_vertices):
            assert np.array_equal(mg.in_neighbors(v), fresh.in_neighbors(v))
            assert np.array_equal(mg.in_weights(v), fresh.in_weights(v))

    def test_equivalence_after_each_epoch(self):
        rng = np.random.default_rng(7)
        mg = _mutable_grid(6, 6)
        for _epoch in range(8):
            delta = GraphDelta()
            src, dst, w = mg.edge_array()
            for _ in range(4):
                op = rng.integers(0, 4)
                if op == 0 and src.size:
                    e = int(rng.integers(0, src.size))
                    delta.update_weights.append(
                        (int(src[e]), int(dst[e]), float(w[e]) * 2.0)
                    )
                elif op == 1 and src.size:
                    e = int(rng.integers(0, src.size))
                    delta.delete_edges.append((int(src[e]), int(dst[e])))
                elif op == 2:
                    u = int(rng.integers(0, mg.num_vertices))
                    v = int(rng.integers(0, mg.num_vertices))
                    if u != v:
                        delta.insert_edges.append((u, v, 1.0))
                else:
                    delta.new_vertices.append(
                        NewVertexSpec(edges=((int(rng.integers(0, 16)), 1.0),))
                    )
            mg.apply_delta(delta)
            self._assert_fresh_equivalent(mg)

    def test_flush_drops_the_in_adjacency_and_rebuilds_it_on_read(self):
        mg = _mutable_grid(4, 4)
        before = mg.csr_in()
        mg.apply_delta(
            GraphDelta(
                insert_edges=[(0, 5, 2.0), (0, 5, 0.5), (3, 5, 1.0), (16, 5, 4.0)],
                delete_edges=[(1, 2)],
                new_vertices=[NewVertexSpec(edges=((5, 3.0), (5, 1.5)))],
            )
        )
        assert mg._csr_in_view is None, "a flush must not rebuild the reverse CSR"
        fresh = fresh_rebuild(mg).csr_in()
        rin = mg.csr_in()
        assert rin is not before
        assert np.array_equal(rin.indptr, fresh.indptr)
        assert np.array_equal(rin.indices, fresh.indices)
        assert np.array_equal(rin.weights, fresh.weights)
        # two parallel 0 -> 5 edges, 3 -> 5 and three parallel 16 -> 5 edges
        assert mg.in_degree(5) == before.indptr[6] - before.indptr[5] + 6

    def test_equivalence_with_removals(self):
        mg = _mutable_grid(5, 5)
        mg.apply_delta(GraphDelta(remove_vertices=[0, 7, 24]))
        self._assert_fresh_equivalent(mg)
        mg.apply_delta(GraphDelta(new_vertices=[NewVertexSpec(edges=((12, 1.0),))]))
        self._assert_fresh_equivalent(mg)


class TestReverseCsrParallelEdges:
    """Satellite: reverse-CSR weight alignment for graphs with parallel edges."""

    def test_reverse_weights_aligned_for_parallel_edges(self):
        b = GraphBuilder(3)
        b.add_edge(0, 2, 1.0)
        b.add_edge(0, 2, 5.0)  # parallel edge, different weight
        b.add_edge(1, 2, 3.0)
        b.add_edge(0, 1, 2.0)
        g = b.build()
        # every forward edge (u, v, w) appears in v's reverse slice with
        # the same weight — multiset equality per (u, v) pair
        fwd = {}
        for u, v, w in g.edges():
            fwd.setdefault((u, v), []).append(w)
        rev = {}
        for v in range(g.num_vertices):
            for u, w in zip(g.in_neighbors(v), g.in_weights(v)):
                rev.setdefault((int(u), v), []).append(float(w))
        assert {k: sorted(ws) for k, ws in fwd.items()} == {
            k: sorted(ws) for k, ws in rev.items()
        }

    def test_reverse_weights_aligned_random_multigraph(self):
        rng = np.random.default_rng(11)
        b = GraphBuilder(12)
        for _ in range(80):
            u, v = rng.integers(0, 12, size=2)
            if u != v:
                b.add_edge(int(u), int(v), float(rng.uniform(0.5, 9.0)))
        g = b.build()
        total_rev = 0
        for v in range(g.num_vertices):
            neigh = g.in_neighbors(v)
            weights = g.in_weights(v)
            assert neigh.size == weights.size
            total_rev += neigh.size
            for u, w in zip(neigh, weights):
                # each aligned (u, w) must be an actual forward edge weight
                owts = g.out_weights(int(u))[g.out_neighbors(int(u)) == v]
                assert np.any(np.isclose(owts, w))
        assert total_rev == g.num_edges
