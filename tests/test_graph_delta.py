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
        mg.apply_delta(GraphDelta(delete_edges=[(0, 1)]))
        assert g.has_edge(0, 1), "mutating the copy touched the source"
        assert not mg.has_edge(0, 1)

    def test_empty_delta_is_a_noop(self):
        mg = _mutable_grid()
        before = mg.churn_epochs
        result = mg.apply_delta(GraphDelta())
        assert not result
        assert mg.churn_epochs == before

    def test_csr_views_invalidated_on_rebuild(self):
        mg = _mutable_grid()
        view = mg.csr()
        rview = mg.csr_in()
        mg.apply_delta(GraphDelta(delete_edges=[(0, 1)]))
        assert mg.csr() is not view
        assert mg.csr_in() is not rview
        # the old borrowed view still references the pre-rebuild arrays
        assert view.indices.size == mg.num_edges + 1

    def test_weight_update(self):
        mg = _mutable_grid()
        mg.apply_delta(GraphDelta(update_weights=[(0, 1, 7.5)]))
        assert mg.edge_weight(0, 1) == 7.5

    def test_weight_update_last_wins_within_one_delta(self):
        mg = _mutable_grid()
        mg.apply_delta(GraphDelta(update_weights=[(0, 1, 7.5), (0, 1, 3.25)]))
        assert mg.edge_weight(0, 1) == 3.25

    def test_insert_edge(self):
        mg = _mutable_grid()
        assert not mg.has_edge(0, 15)
        mg.apply_delta(GraphDelta(insert_edges=[(0, 15, 2.0)]))
        assert mg.edge_weight(0, 15) == 2.0
        assert 0 in mg.in_neighbors(15)

    def test_negative_weights_in_raw_delta_rejected_at_rebuild(self):
        """A delta carrying a negative weight is rejected before any state
        is touched."""
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

    def test_add_vertex_extends_coords_and_tags(self):
        rn = generate_road_network(
            num_cities=3, num_urban_vertices=200, seed=1, region_size=40.0
        )
        mg = MutableDiGraph.from_digraph(rn.graph)
        n = mg.num_vertices
        spec = NewVertexSpec(x=1.0, y=2.0, tag=True, edges=((0, 1.5),))
        res = mg.apply_delta(GraphDelta(new_vertices=[spec]))
        assert res.first_new_vertex == n
        assert mg.num_vertices == n + 1
        assert mg.coords.shape == (n + 1, 2)
        assert tuple(mg.coords[n]) == (1.0, 2.0)
        assert mg.tags[n]
        assert mg.has_edge(n, 0) and mg.has_edge(0, n)  # bidirectional default

    def test_remove_vertex_tombstones(self):
        mg = _mutable_grid()
        n = mg.num_vertices
        res = mg.apply_delta(GraphDelta(remove_vertices=[5]))
        assert res.removed_vertices == (5,)
        assert mg.num_vertices == n  # id space unchanged
        assert np.flatnonzero(mg.dead_mask).tolist() == [5]
        assert mg.out_degree(5) == 0 and mg.in_degree(5) == 0
        assert not any(5 in mg.out_neighbors(v) for v in range(n))

    def test_tolerant_application(self):
        """Conflicting mutations are skipped, not errors (change-feed replay)."""
        mg = _mutable_grid()
        mg.apply_delta(GraphDelta(remove_vertices=[5]))
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

    def test_reads_reflect_the_last_applied_delta_only(self):
        """A delta is plain data: building or editing one touches no graph,
        and editing it after it was applied changes nothing either."""
        mg = _mutable_grid()
        delta = GraphDelta(delete_edges=[(0, 1)])
        delta.update_weights.append((1, 2, 9.0))
        assert mg.has_edge(0, 1) and mg.edge_weight(1, 2) == 1.0
        mg.apply_delta(delta)
        assert not mg.has_edge(0, 1) and mg.edge_weight(1, 2) == 9.0
        delta.insert_edges.append((0, 1, 4.0))
        delta.update_weights.clear()
        assert not mg.has_edge(0, 1) and mg.edge_weight(1, 2) == 9.0

    def test_from_digraph_carries_the_tombstones(self):
        mg = _mutable_grid()
        mg.apply_delta(GraphDelta(remove_vertices=[3, 9]))
        copy = MutableDiGraph.from_digraph(mg)
        assert copy == mg
        assert np.flatnonzero(copy.dead_mask).tolist() == [3, 9]
        assert copy.dead_mask is not mg.dead_mask
        res = copy.apply_delta(GraphDelta(insert_edges=[(3, 4, 1.0)]))
        assert (res.inserted_edges, res.skipped) == (0, 1)

    def test_delete_removes_every_parallel_edge(self):
        mg = _mutable_grid()
        mg.apply_delta(GraphDelta(insert_edges=[(0, 1, 5.0), (0, 1, 0.5)]))
        assert mg.out_neighbors(0).tolist().count(1) == 3
        res = mg.apply_delta(GraphDelta(delete_edges=[(0, 1), (0, 1)]))
        assert (res.deleted_edges, res.skipped) == (3, 0)
        assert not mg.has_edge(0, 1)

    def test_delete_then_reinsert_in_one_delta_keeps_the_edge(self):
        mg = _mutable_grid()
        res = mg.apply_delta(
            GraphDelta(delete_edges=[(0, 1)], insert_edges=[(0, 1, 6.0)])
        )
        assert (res.deleted_edges, res.inserted_edges) == (1, 1)
        assert mg.edge_weight(0, 1) == 6.0

    def test_one_way_new_vertex(self):
        mg = _mutable_grid()
        n = mg.num_vertices
        mg.apply_delta(
            GraphDelta(new_vertices=[NewVertexSpec(edges=((2, 1.0),), bidirectional=False)])
        )
        assert mg.has_edge(n, 2) and not mg.has_edge(2, n)

    def test_new_vertex_edges_to_dead_neighbours_are_skipped(self):
        mg = _mutable_grid()
        n = mg.num_vertices
        res = mg.apply_delta(
            GraphDelta(
                remove_vertices=[2],
                new_vertices=[NewVertexSpec(edges=((2, 1.0), (7, 1.0)))],
            )
        )
        assert res.first_new_vertex == n
        # both directions of the edge to the removed vertex are skipped
        assert (res.inserted_edges, res.skipped) == (2, 2)
        assert sorted(mg.out_neighbors(n).tolist()) == [7]

    def test_a_tagged_new_vertex_on_an_untagged_graph_creates_tags(self):
        mg = _mutable_grid()
        assert mg.tags is None and mg.coords is not None
        n = mg.num_vertices
        mg.apply_delta(
            GraphDelta(new_vertices=[NewVertexSpec(), NewVertexSpec(tag=True)])
        )
        assert np.flatnonzero(mg.tags).tolist() == [n + 1]
        # a new vertex without coordinates sits at the origin
        assert mg.coords[n].tolist() == [0.0, 0.0]

    def test_an_all_skipped_delta_is_no_churn_epoch(self):
        mg = _mutable_grid()
        before = (mg.churn_epochs, mg.edge_array())
        res = mg.apply_delta(
            GraphDelta(delete_edges=[(0, 15)], update_weights=[(0, 15, 2.0)])
        )
        assert not res and res.skipped == 2
        assert mg.churn_epochs == before[0]
        for got, want in zip(mg.edge_array(), before[1]):
            assert np.array_equal(got, want)

    def test_out_of_range_removal_is_skipped(self):
        """Removal ids outside the id space are tolerated like every other
        conflicting mutation: counted as skipped, not an ``IndexError``."""
        mg = _mutable_grid()
        n = mg.num_vertices
        res = mg.apply_delta(GraphDelta(remove_vertices=[n, n + 7, -1, 4]))
        assert res.removed_vertices == (4,)
        assert res.skipped == 3
        assert np.flatnonzero(mg.dead_mask).tolist() == [4]


@pytest.mark.parametrize(
    "field, value",
    [
        ("insert_edges", (0, 1, 1.0)),
        ("delete_edges", (0, 1)),
        ("update_weights", (0, 1, 1.0)),
        ("new_vertices", NewVertexSpec()),
        ("remove_vertices", 0),
    ],
)
def test_any_one_mutation_makes_a_delta_true(field, value):
    """The engine and the workloads test ``bool(delta)`` for "anything to
    apply": every kind of mutation counts on its own."""
    delta = GraphDelta()
    assert not delta
    getattr(delta, field).append(value)
    assert delta


class _EdgeListModel:
    """The documented semantics of ``apply_delta`` over a plain edge list:
    weight updates, deletions, vertex removals, then insertions and vertex
    additions, every conflicting mutation counted as skipped."""

    def __init__(self, graph):
        self.n = graph.num_vertices
        self.edges = [(u, v, w) for u, v, w in graph.edges()]
        self.dead = set()

    def _alive(self, u, v, n):
        return 0 <= u < n and 0 <= v < n and u not in self.dead and v not in self.dead

    def apply(self, delta):
        counts = dict(updated=0, deleted=0, inserted=0, skipped=0)
        for u, v, w in delta.update_weights:
            hits = [i for i, e in enumerate(self.edges) if e[:2] == (u, v)]
            if not self._alive(u, v, self.n) or not hits:
                counts["skipped"] += 1
            for i in hits:
                self.edges[i] = (u, v, w)
            counts["updated"] += len(hits)
        wanted = set()
        for u, v in delta.delete_edges:
            if 0 <= u < self.n and 0 <= v < self.n:
                wanted.add((u, v))
            else:
                counts["skipped"] += 1
        present = {e[:2] for e in self.edges}
        counts["skipped"] += len(wanted - present)
        counts["deleted"] += sum(e[:2] in wanted for e in self.edges)
        self.edges = [e for e in self.edges if e[:2] not in wanted]
        removed = []
        for v in sorted(set(delta.remove_vertices)):
            if 0 <= v < self.n and v not in self.dead:
                removed.append(v)
            else:
                counts["skipped"] += 1
        self.dead.update(removed)
        kept = [e for e in self.edges if e[0] not in self.dead and e[1] not in self.dead]
        counts["deleted"] += len(self.edges) - len(kept)
        self.edges = kept
        inserts = list(delta.insert_edges)
        for i, spec in enumerate(delta.new_vertices):
            vid = self.n + i
            for neighbor, w in spec.edges:
                inserts.append((vid, neighbor, w))
                if spec.bidirectional:
                    inserts.append((neighbor, vid, w))
        self.n += len(delta.new_vertices)
        for u, v, w in inserts:
            if self._alive(u, v, self.n):
                self.edges.append((u, v, w))
                counts["inserted"] += 1
            else:
                counts["skipped"] += 1
        return counts, tuple(removed)


def _random_delta(rng, model):
    """A delta of valid and conflicting mutations: live, absent, dead,
    out-of-range and repeated endpoints."""
    delta = GraphDelta()
    span = model.n + 2  # a few ids past the end

    def pair():
        if model.edges and rng.random() < 0.6:
            u, v, _w = model.edges[int(rng.integers(len(model.edges)))]
            return u, v
        return int(rng.integers(-1, span)), int(rng.integers(-1, span))

    for _ in range(int(rng.integers(0, 5))):
        delta.update_weights.append(pair() + (float(rng.integers(1, 9)),))
    for _ in range(int(rng.integers(0, 4))):
        delta.delete_edges.append(pair())
    for _ in range(int(rng.integers(0, 3))):
        delta.remove_vertices.append(int(rng.integers(-1, span)))
    for _ in range(int(rng.integers(0, 5))):
        delta.insert_edges.append(pair() + (float(rng.integers(1, 9)),))
    for _ in range(int(rng.integers(0, 3))):
        edges = tuple(
            (int(rng.integers(0, model.n)), float(rng.integers(1, 9)))
            for _ in range(int(rng.integers(0, 3)))
        )
        delta.new_vertices.append(
            NewVertexSpec(edges=edges, bidirectional=bool(rng.random() < 0.7))
        )
    return delta


@pytest.mark.parametrize("seed", range(10))
def test_apply_delta_matches_the_edge_list_model(seed):
    """Random deltas, conflicts included, over several churn epochs: the
    rebuilt graph, its tombstones and every ``DeltaResult`` count equal what
    the plain edge-list model derives from the documented order."""
    rng = np.random.default_rng(seed)
    mg = _mutable_grid(3, 3)
    model = _EdgeListModel(mg)
    epochs = 0
    for _epoch in range(12):
        delta = _random_delta(rng, model)
        n_before = model.n
        counts, removed = model.apply(delta)
        res = mg.apply_delta(delta)
        assert res.updated_weights == counts["updated"]
        assert res.deleted_edges == counts["deleted"]
        assert res.inserted_edges == counts["inserted"]
        assert res.skipped == counts["skipped"]
        assert res.removed_vertices == removed
        assert res.added_vertices == len(delta.new_vertices)
        assert res.first_new_vertex == (n_before if delta.new_vertices else None)
        assert mg.num_vertices == model.n
        assert sorted(mg.edges()) == sorted(model.edges)
        assert set(np.flatnonzero(mg.dead_mask).tolist()) == model.dead
        epochs += bool(res)
        assert mg.churn_epochs == epochs


class TestRowsInAnyOrder:
    """``apply_delta`` binary-searches the edge keys in canonical CSR order;
    a graph handed to the constructor with unsorted rows is valid CSR all
    the same and must rebuild to what its canonical twin rebuilds to."""

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
    """A rebuilt MutableDiGraph must be array-for-array identical to a
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

    def test_rebuild_drops_the_in_adjacency_and_rebuilds_it_on_read(self):
        mg = _mutable_grid(4, 4)
        before = mg.csr_in()
        mg.apply_delta(
            GraphDelta(
                insert_edges=[(0, 5, 2.0), (0, 5, 0.5), (3, 5, 1.0), (16, 5, 4.0)],
                delete_edges=[(1, 2)],
                new_vertices=[NewVertexSpec(edges=((5, 3.0), (5, 1.5)))],
            )
        )
        assert mg._csr_in_view is None, "apply_delta must not rebuild the reverse CSR"
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
