"""Unit tests for the CSR directed graph."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
import repro.graph.builder as builder_module
from benchmarks.spine.workloads import WORKLOADS, build
from reference_impls import ListEdgeBuilder, reverse_csr_reference
from repro.graph import DiGraph, GraphBuilder, csr_arrays_from_edges


def small_graph():
    b = GraphBuilder(4)
    b.add_edge(0, 1, 1.0)
    b.add_edge(0, 2, 2.0)
    b.add_edge(1, 2, 0.5)
    b.add_edge(2, 3, 1.5)
    b.add_edge(3, 0, 4.0)
    return b.build(name="small")


class TestConstruction:
    def test_counts(self):
        g = small_graph()
        assert g.num_vertices == 4
        assert g.num_edges == 5

    def test_rejects_bad_indptr(self):
        with pytest.raises(GraphError):
            DiGraph(np.array([1, 2]), np.array([0]), np.array([1.0]))

    def test_rejects_nonmonotone_indptr(self):
        with pytest.raises(GraphError):
            DiGraph(np.array([0, 2, 1]), np.array([0, 1]), np.array([1.0, 1.0]))

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(GraphError):
            DiGraph(np.array([0, 1]), np.array([5]), np.array([1.0]))

    def test_rejects_negative_weight(self):
        with pytest.raises(GraphError):
            DiGraph(np.array([0, 1, 1]), np.array([1]), np.array([-1.0]))

    def test_rejects_weight_length_mismatch(self):
        with pytest.raises(GraphError):
            DiGraph(np.array([0, 1, 1]), np.array([1]), np.array([1.0, 2.0]))

    def test_rejects_bad_coords_shape(self):
        with pytest.raises(GraphError):
            DiGraph(
                np.array([0, 0, 0]),
                np.empty(0, dtype=np.int64),
                np.empty(0),
                coords=np.zeros((3, 2)),
            )

    def test_empty_graph(self):
        g = DiGraph(np.array([0]), np.empty(0, dtype=np.int64), np.empty(0))
        assert g.num_vertices == 0
        assert g.num_edges == 0


class TestAdjacency:
    def test_out_neighbors(self):
        g = small_graph()
        assert sorted(g.out_neighbors(0).tolist()) == [1, 2]
        assert g.out_neighbors(3).tolist() == [0]

    def test_out_weights_aligned(self):
        g = small_graph()
        nbrs = g.out_neighbors(0).tolist()
        ws = g.out_weights(0).tolist()
        assert dict(zip(nbrs, ws)) == {1: 1.0, 2: 2.0}

    def test_in_neighbors_is_reverse(self):
        g = small_graph()
        assert sorted(g.in_neighbors(2).tolist()) == [0, 1]
        assert g.in_neighbors(0).tolist() == [3]

    def test_in_weights(self):
        g = small_graph()
        nbrs = g.in_neighbors(2).tolist()
        ws = g.in_weights(2).tolist()
        assert dict(zip(nbrs, ws)) == {0: 2.0, 1: 0.5}

    def test_degrees(self):
        g = small_graph()
        assert g.out_degree(0) == 2
        assert g.in_degree(2) == 2
        assert g.out_degrees().tolist() == [2, 1, 1, 1]
        assert g.in_degrees().sum() == g.num_edges

    def test_has_edge(self):
        g = small_graph()
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)

    def test_edge_weight(self):
        g = small_graph()
        assert g.edge_weight(1, 2) == 0.5
        with pytest.raises(GraphError):
            g.edge_weight(1, 3)

    def test_edge_weight_parallel_edges_keeps_min(self):
        b = GraphBuilder(2)
        b.add_edge(0, 1, 5.0)
        b.add_edge(0, 1, 2.0)
        g = b.build()
        assert g.edge_weight(0, 1) == 2.0

    def test_vertex_out_of_range(self):
        g = small_graph()
        with pytest.raises(GraphError):
            g.out_neighbors(10)
        with pytest.raises(GraphError):
            g.out_neighbors(-1)

    def test_edges_iterator(self):
        g = small_graph()
        edges = list(g.edges())
        assert len(edges) == 5
        assert (0, 1, 1.0) in edges

    def test_edge_array_roundtrip(self):
        g = small_graph()
        src, dst, w = g.edge_array()
        assert len(src) == g.num_edges
        rebuilt = set(zip(src.tolist(), dst.tolist()))
        assert rebuilt == {(u, v) for u, v, _ in g.edges()}


def multigraph(seed=3, n=9, m=40):
    """A random multigraph: parallel edges, self loops and sinks."""
    rng = np.random.default_rng(seed)
    b = GraphBuilder(n)
    for u, v in rng.integers(0, n, size=(m, 2)):
        b.add_edge(int(u), int(v), float(rng.uniform(0.5, 9.0)))
    return b.build()


class TestLazyInAdjacency:
    """The reverse CSR is derived on the first in-adjacency read, never
    before, and equals an edge-by-edge build."""

    def test_never_built_unless_read(self):
        g = multigraph()
        g.csr()
        g.out_neighbors(0)
        g.out_weights(0)
        g.out_degrees()
        g.edge_array()
        g.has_edge(0, 1)
        g.subgraph_edge_count([0, 1, 2])
        assert g._csr_in_view is None
        assert g == multigraph()  # equality reads the out-adjacency only
        assert g._csr_in_view is None

    @pytest.mark.parametrize(
        "read",
        [
            lambda g: g.csr_in(),
            lambda g: g.in_neighbors(0),
            lambda g: g.in_weights(0),
            lambda g: g.in_degree(0),
            lambda g: g.in_degrees(),
        ],
        ids=["csr_in", "in_neighbors", "in_weights", "in_degree", "in_degrees"],
    )
    def test_any_in_read_builds_it_once(self, read):
        g = multigraph()
        read(g)
        view = g._csr_in_view
        assert view is not None
        read(g)
        assert g.csr_in() is view

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_equals_the_edge_by_edge_reverse(self, seed):
        g = multigraph(seed)
        rindptr, rindices, rweights = reverse_csr_reference(g)
        # built through the per-vertex accessors first, then the view
        for v in range(g.num_vertices):
            lo, hi = rindptr[v], rindptr[v + 1]
            assert g.in_degree(v) == hi - lo
            assert np.array_equal(g.in_neighbors(v), rindices[lo:hi])
            assert np.array_equal(g.in_weights(v), rweights[lo:hi])
        rin = g.csr_in()
        assert np.array_equal(rin.indptr, rindptr)
        assert np.array_equal(rin.indices, rindices)
        assert np.array_equal(rin.weights, rweights)
        assert np.array_equal(g.in_degrees(), np.diff(rindptr))

    @pytest.mark.parametrize("name", ["static_hotspot", "churn_recovery"])
    def test_a_spine_run_never_builds_it(self, name):
        built = build(WORKLOADS[name], seed=7, smoke=True)
        built.engine.run()
        assert built.engine.graph._csr_in_view is None
        assert built.road_network.graph._csr_in_view is None


class TestAttributes:
    def test_coords(self):
        b = GraphBuilder(2)
        b.add_edge(0, 1, 1.0)
        b.set_coord(0, 0.0, 0.0)
        b.set_coord(1, 3.0, 4.0)
        g = b.build()
        assert g.has_coords()
        assert g.euclidean(0, 1) == pytest.approx(5.0)

    def test_euclidean_without_coords_raises(self):
        g = small_graph()
        with pytest.raises(GraphError):
            g.euclidean(0, 1)

    def test_tags(self):
        b = GraphBuilder(3)
        b.add_edge(0, 1, 1.0)
        b.set_tag(2)
        g = b.build()
        assert g.has_tags()
        assert g.tagged_vertices().tolist() == [2]

    def test_no_tags(self):
        g = small_graph()
        assert not g.has_tags()
        assert g.tagged_vertices().size == 0

    def test_subgraph_edge_count(self):
        g = small_graph()
        assert g.subgraph_edge_count([0, 1, 2]) == 3
        assert g.subgraph_edge_count([0]) == 0


class TestBuilderArrays:
    def test_add_edge_arrays_equals_add_edge_loop(self):
        src = np.array([0, 2, 0, 3, 0])
        dst = np.array([1, 3, 1, 0, 2])
        w = np.array([5.0, 1.0, 2.0, 0.0, 4.0])
        one_by_one, batched = GraphBuilder(4), GraphBuilder(4)
        one_by_one.add_edge(1, 2, 7.0)
        batched.add_edge(1, 2, 7.0)
        for u, v, x in zip(src, dst, w):
            one_by_one.add_edge(int(u), int(v), float(x))
        batched.add_edge_arrays(src, dst, w)
        assert batched.num_edges == one_by_one.num_edges == 6
        a, b = one_by_one.build(), batched.build()
        assert a == b
        # parallel edges keep their insertion order in the CSR arrays
        assert b.weights[b.indptr[0] : b.indptr[1]].tolist() == [5.0, 2.0, 4.0]

    def test_add_edge_arrays_validates_like_add_edge(self):
        b = GraphBuilder(3)
        with pytest.raises(GraphError):
            b.add_edge_arrays(np.array([0, 3]), np.array([1, 0]), np.array([1.0, 1.0]))
        with pytest.raises(GraphError):
            b.add_edge_arrays(np.array([0, -1]), np.array([1, 0]), np.array([1.0, 1.0]))
        with pytest.raises(GraphError):
            b.add_edge_arrays(np.array([0]), np.array([1]), np.array([-0.5]))
        with pytest.raises(GraphError):
            b.add_edge_arrays(np.array([0, 1]), np.array([1]), np.array([1.0]))
        assert b.num_edges == 0  # a rejected batch adds nothing
        b.add_edge_arrays(np.array([], dtype=np.int64), np.array([], dtype=np.int64), np.array([]))
        assert b.num_edges == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_mixed_calls_match_the_list_reference(self, seed):
        """Every edge call, interleaved at random — single edges past the
        scalar buffer's flush size among them — gives the CSR of three
        plain edge lists; ``num_edges`` is right after every call, and a
        second build (after more edges) starts from what the first kept."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        builder, ref = GraphBuilder(n), ListEdgeBuilder(n)

        def edge():
            u, v = rng.integers(0, builder.num_vertices, size=2)
            return int(u), int(v), float(rng.integers(0, 4))

        def arrays():
            size = int(rng.integers(0, 30))
            return (rng.integers(0, builder.num_vertices, size=size),
                    rng.integers(0, builder.num_vertices, size=size),
                    rng.integers(0, 4, size=size).astype(np.float64))

        calls = [
            lambda: ("add_edge", edge()),
            lambda: ("add_bidirectional_edge", edge()),
            lambda: ("add_edges", ([edge() for _ in range(int(rng.integers(0, 8)))],)),
            lambda: ("add_edge_arrays", arrays()),
            lambda: ("add_vertices", (int(rng.integers(0, 3)),)),
        ]
        for step in range(60):
            if step in (10, 40):
                batch = [edge() for _ in range(builder_module._SCALAR_FLUSH + 3)]
                name, args = "add_edges", (batch,)
            else:
                name, args = calls[int(rng.integers(0, len(calls)))]()
            getattr(builder, name)(*args)
            getattr(ref, name)(*args)
            assert builder.num_edges == ref.num_edges
            if step in (20, 59):
                for dedup in (False, True):
                    graph = builder.build(deduplicate=dedup)
                    indptr, indices, weights = ref.csr(deduplicate=dedup)
                    assert np.array_equal(graph.indptr, indptr)
                    assert np.array_equal(graph.indices, indices)
                    assert np.array_equal(graph.weights, weights)
                    assert builder.num_edges == ref.num_edges

    def test_add_edge_arrays_copies_its_input(self):
        """Chunks are kept until build: a caller reusing its buffers must not
        change the graph."""
        src, dst, w = np.array([0, 1]), np.array([1, 2]), np.array([1.0, 2.0])
        b = GraphBuilder(3)
        b.add_edge_arrays(src, dst, w)
        src[:], dst[:], w[:] = 2, 0, 9.0
        assert list(b.build().edges()) == [(0, 1, 1.0), (1, 2, 2.0)]

    def test_set_coords_matches_set_coord_and_survives_growth(self):
        one_by_one, batched = GraphBuilder(2), GraphBuilder(2)
        one_by_one.set_coord(1, 3.0, 4.0)
        batched.set_coords(np.array([1]), np.array([[3.0, 4.0]]))
        for b in (one_by_one, batched):
            first = b.add_vertices(3)
            b.add_edge(0, first, 1.0)
        one_by_one.set_coord(4, -1.0, 2.5)
        one_by_one.set_coord(2, 9.0, 9.0)
        batched.set_coords(np.array([4, 2]), np.array([[-1.0, 2.5], [9.0, 9.0]]))
        a, b = one_by_one.build(), batched.build()
        assert a == b
        # vertices without a coordinate read as the origin, as before
        assert b.coords.tolist() == [[0, 0], [3, 4], [9, 9], [0, 0], [-1, 2.5]]

    def test_set_coords_validates(self):
        b = GraphBuilder(2)
        with pytest.raises(GraphError):
            b.set_coords(np.array([0, 2]), np.zeros((2, 2)))
        with pytest.raises(GraphError):
            b.set_coords(np.array([0, 1]), np.zeros((2, 3)))
        b.add_edge(0, 1)
        assert not b.build().has_coords()


def lexsort_csr_arrays(src, dst, weights, n):
    """The canonical construction as first written: a two-key lexsort."""
    order = np.lexsort((dst, src)) if src.size else np.empty(0, dtype=np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    if src.size:
        indptr[1:] = np.cumsum(np.bincount(src, minlength=n))
    return indptr, dst[order], weights[order]


@st.composite
def multigraph_edges(draw):
    """Edge lists over few vertices: parallel edges (told apart by their
    weights), self loops and vertices without any edge are the rule."""
    n = draw(st.integers(1, 12))
    endpoints = st.integers(0, draw(st.integers(0, n - 1)))
    pairs = draw(st.lists(st.tuples(endpoints, endpoints), max_size=60))
    src = np.asarray([u for u, _v in pairs], dtype=np.int64)
    dst = np.asarray([v for _u, v in pairs], dtype=np.int64)
    return n, src, dst, np.arange(len(pairs), dtype=np.float64)


class TestCanonicalCsrConstruction:
    @given(multigraph_edges())
    @settings(max_examples=300, deadline=None)
    def test_encoded_key_sort_is_the_lexsort_construction(self, edges):
        n, src, dst, weights = edges
        got = csr_arrays_from_edges(src, dst, weights, n)
        want = lexsort_csr_arrays(src, dst, weights, n)
        for ours, theirs in zip(got, want):
            assert ours.dtype == theirs.dtype
            assert np.array_equal(ours, theirs)

    def test_a_vertex_count_whose_square_overflows_the_key_is_rejected(self):
        none = np.empty(0, dtype=np.int64)
        with pytest.raises(GraphError, match="int64 key"):
            csr_arrays_from_edges(none, none, np.empty(0), 3_037_000_500)


class TestEquality:
    def test_equal_graphs(self):
        assert small_graph() == small_graph()

    def test_unequal_weights(self):
        b = GraphBuilder(4)
        b.add_edge(0, 1, 9.0)
        assert small_graph() != b.build()
