"""Vectorized kernel layer: equivalence with the generic path + unit tests."""

import contextlib
import hashlib

import numpy as np
import pytest

from reference_impls import generic_path
from repro.core import Controller
from repro.engine import (
    ArrayMailbox,
    EngineConfig,
    QGraphEngine,
    Query,
    SyncMode,
    VertexProgram,
)
from repro.engine.kernels import (
    LocalWccKernel,
    combine_by_vertex,
    expand_edges,
    group_by_owner,
)
from repro.graph import DiGraph, grid_graph, rmat_graph, watts_strogatz
from repro.partitioning import HashPartitioner
from repro.queries import (
    BfsProgram,
    KHopProgram,
    LocalPageRankProgram,
    LocalWccProgram,
    PoiProgram,
    ReachabilityProgram,
    SsspProgram,
)
from repro.simulation.cluster import make_cluster


def build_engine(graph, k=3, sync_mode=SyncMode.HYBRID, **cfg):
    assignment = HashPartitioner(seed=0).partition(graph, k)
    return QGraphEngine(
        graph,
        make_cluster("M2", k),
        assignment,
        controller=Controller(k),
        config=EngineConfig(
            sync_mode=sync_mode, adaptive=False, **cfg
        ),
    )


def run_both(graph, queries, sync_mode=SyncMode.HYBRID, k=3, until=None):
    engines = []
    for path in (contextlib.nullcontext(), generic_path()):
        eng = build_engine(graph, k=k, sync_mode=sync_mode)
        for q in queries:
            eng.submit(q)
        with path:
            eng.run(until)
        engines.append(eng)
    return engines


#: case -> ((size, digest) half-way through the run, (size, digest) after
#: finish) of ``sorted(qr.scope)``, recorded at the commit before the scope
#: set was replaced by ``scope_vertices()`` (PR 15)
PINNED_SCOPES = {
    "bfs-depth": ((17, "290da41678cb1fa5"), (117, "32885f87b09214c5")),
    "bfs-target": ((42, "26de57e3fd19476a"), (199, "e028d565a9c7d0a5")),
    "khop": ((7, "a4a72a2ffd960a4d"), (57, "21e8e5365b433d27")),
    "pagerank": ((300, "98e038d3a30a9917"), (300, "98e038d3a30a9917")),
    "poi": ((10, "b6af4edf9073f5a7"), (36, "5b974b2a55b9be92")),
    "reach": ((178, "8e7c8725d127c8c6"), (299, "680fffd342af0c43")),
    "sssp-full": ((214, "b5b52db8fb05cb6c"), (300, "98e038d3a30a9917")),
    "sssp-target": ((122, "4a5c7208c139c9c2"), (300, "98e038d3a30a9917")),
    "wcc": ((33, "fd9f043cd444b264"), (167, "f1901c83c2d2e0db")),
}


def assert_same_scope(graph, query, vec, gen, case):
    """``scope_vertices()`` is one more field the two paths agree on —
    half-way through the run (kernel: ``scope_mask``; generic: ``state``
    keys) and after finish (both: the materialized ``state``) — and equals
    what the scope set it replaced held."""
    qid = query.query_id
    end = vec.trace.queries[qid].end_time
    mid_vec, mid_gen = run_both(graph, [query], until=end / 2)
    assert not mid_vec.runtimes[qid].finished
    assert not mid_gen.runtimes[qid].finished
    for a, b, pinned in zip((mid_vec, vec), (mid_gen, gen), PINNED_SCOPES[case]):
        scope = a.runtimes[qid].scope_vertices()
        assert scope.dtype == np.int64
        assert np.array_equal(scope, b.runtimes[qid].scope_vertices())
        digest = hashlib.sha256(scope.tobytes()).hexdigest()[:16]
        assert (scope.size, digest) == pinned


@pytest.fixture(scope="module")
def social():
    return watts_strogatz(300, 6, 0.1, seed=3)


PROGRAM_CASES = {
    "sssp-full": (lambda: SsspProgram(5), (5,)),
    "sssp-target": (lambda: SsspProgram(0, 250), (0,)),
    "bfs-target": (lambda: BfsProgram(1, target=200), (1,)),
    "bfs-depth": (lambda: BfsProgram(2, max_depth=4), (2,)),
    "khop": (lambda: KHopProgram(7, 3), (7,)),
    "reach": (lambda: ReachabilityProgram(9, 280), (9,)),
    "wcc": (lambda: LocalWccProgram(4), (3, 8, 12)),
}


class TestEquivalence:
    @pytest.mark.parametrize("case", sorted(PROGRAM_CASES))
    def test_identical_results(self, social, case):
        factory, seeds = PROGRAM_CASES[case]
        q = Query(0, factory(), seeds)
        vec, gen = run_both(social, [q])
        assert vec.runtimes[0].kernel is not None
        assert gen.runtimes[0].kernel is None
        assert vec.query_result(0) == gen.query_result(0)
        assert_same_scope(social, q, vec, gen, case)

    def test_identical_virtual_time(self, social):
        """Both paths produce the same counters, hence the same virtual time."""
        queries = [Query(i, SsspProgram(i), (i,)) for i in range(4)]
        vec, gen = run_both(social, queries)
        assert vec.trace.total_latency() == gen.trace.total_latency()
        assert vec.trace.remote_messages == gen.trace.remote_messages
        assert vec.trace.local_messages == gen.trace.local_messages

    @pytest.mark.parametrize(
        "mode", [SyncMode.HYBRID, SyncMode.GLOBAL_PER_QUERY, SyncMode.SHARED_BSP]
    )
    def test_modes(self, social, mode):
        queries = [
            Query(0, SsspProgram(0, 250), (0,)),
            Query(1, BfsProgram(5), (5,)),
        ]
        vec, gen = run_both(social, queries, sync_mode=mode)
        for qid in (0, 1):
            assert vec.query_result(qid) == gen.query_result(qid)

    def test_pagerank_close(self, social):
        """Sum-combining reorders float additions: equal scope, close values."""
        q = Query(0, LocalPageRankProgram(11, epsilon=1e-5), (11,))
        vec, gen = run_both(social, [q])
        rv, rg = vec.query_result(0), gen.query_result(0)
        assert rv["scores"].keys() == rg["scores"].keys()
        for v, score in rv["scores"].items():
            assert score == pytest.approx(rg["scores"][v])
        assert rv["residual_mass"] == pytest.approx(rg["residual_mass"])
        assert_same_scope(social, q, vec, gen, "pagerank")

    def test_poi_identical(self):
        g = grid_graph(8, 8)
        tags = np.zeros(g.num_vertices, dtype=bool)
        tags[[27, 52]] = True
        tagged = DiGraph(g.indptr, g.indices, g.weights, tags=tags)
        q = Query(0, PoiProgram(0), (0,))
        vec, gen = run_both(tagged, [q])
        assert vec.runtimes[0].kernel is not None
        assert vec.query_result(0) == gen.query_result(0)
        assert_same_scope(tagged, q, vec, gen, "poi")

    def test_rmat_multi_query_batch(self):
        graph = rmat_graph(2000, 6, seed=2)
        hubs = graph.out_degrees().argsort()[-8:]
        queries = [
            Query(i, SsspProgram(int(v)) if i % 2 else BfsProgram(int(v)), (int(v),))
            for i, v in enumerate(hubs)
        ]
        vec, gen = run_both(graph, queries, k=4)
        for q in queries:
            assert vec.runtimes[q.query_id].finished
            assert gen.runtimes[q.query_id].finished
            assert vec.query_result(q.query_id) == gen.query_result(q.query_id)


class _TupleEcho(VertexProgram):
    """A custom program with no kernel — must use the generic path."""

    kind = "echo"

    def init_messages(self, graph, initial_vertices):
        return [(v, 1) for v in initial_vertices]

    def compute(self, ctx, vertex, state, message):
        if state is None:
            for nbr in ctx.graph.out_neighbors(vertex):
                ctx.send(int(nbr), 1)
        return (state or 0) + 1


class TestFallback:
    def test_custom_program_uses_generic_path(self, social):
        eng = build_engine(social)
        eng.submit(Query(0, _TupleEcho(), (0,)))
        eng.run()
        assert eng.runtimes[0].kernel is None
        assert eng.runtimes[0].finished
        assert eng.query_result(0)[0] >= 1

    def test_generic_path_helper_forces_generic(self, social):
        eng = build_engine(social)
        eng.submit(Query(0, SsspProgram(0), (0,)))
        with generic_path():
            eng.run()
        assert eng.runtimes[0].kernel is None

    def test_generic_path_helper_restores_kernels_on_error(self, social):
        with pytest.raises(RuntimeError):
            with generic_path():
                raise RuntimeError("leave the block early")
        eng = build_engine(social)
        eng.submit(Query(0, SsspProgram(0), (0,)))
        eng.run()
        assert eng.runtimes[0].kernel is not None

    def test_generic_path_helper_nests(self, social):
        """An inner block's exit leaves the outer block in force."""
        engines = [build_engine(social) for _ in range(2)]
        for eng in engines:
            eng.submit(Query(0, SsspProgram(0), (0,)))
        with generic_path():
            with generic_path():
                pass
            engines[0].run()
        engines[1].run()
        assert engines[0].runtimes[0].kernel is None
        assert engines[1].runtimes[0].kernel is not None

    def test_state_materialized_after_finish(self, social):
        eng = build_engine(social)
        eng.submit(Query(0, SsspProgram(0), (0,)))
        eng.run()
        qr = eng.runtimes[0]
        assert qr.state[0] == 0.0
        assert len(qr.state) == eng.query_result(0)["settled"]


class TestKernelPrimitives:
    def test_combine_by_vertex_min(self):
        v = np.array([4, 2, 4, 2, 9], dtype=np.int64)
        m = np.array([3.0, 5.0, 1.0, 2.0, 7.0])
        cv, cm = combine_by_vertex(v, m, np.minimum)
        assert cv.tolist() == [2, 4, 9]
        assert cm.tolist() == [2.0, 1.0, 7.0]

    def test_combine_by_vertex_sum(self):
        v = np.array([1, 1, 1], dtype=np.int64)
        m = np.array([1.0, 2.0, 3.0])
        cv, cm = combine_by_vertex(v, m, np.add)
        assert cv.tolist() == [1]
        assert cm.tolist() == [6.0]

    def test_expand_edges_matches_out_edges(self):
        g = watts_strogatz(50, 4, 0.2, seed=1)
        vertices = np.array([0, 7, 13], dtype=np.int64)
        edge_idx, src_pos = expand_edges(g.indptr, vertices)
        expected = []
        for pos, v in enumerate(vertices):
            for nbr in g.out_neighbors(int(v)):
                expected.append((pos, int(nbr)))
        got = list(zip(src_pos.tolist(), g.indices[edge_idx].tolist()))
        assert got == expected

    def test_expand_edges_empty(self):
        g = grid_graph(2, 2)
        edge_idx, src_pos = expand_edges(g.indptr, np.empty(0, dtype=np.int64))
        assert edge_idx.size == 0 and src_pos.size == 0

    def test_array_mailbox(self):
        box = ArrayMailbox()
        assert not box
        box.append(np.array([1, 2], dtype=np.int64), np.array([1.0, 2.0]))
        box.append(np.array([2], dtype=np.int64), np.array([0.5]))
        box.append(np.empty(0, dtype=np.int64), np.empty(0))  # ignored
        assert box and len(box) == 3
        v, m = box.concat()
        assert v.tolist() == [1, 2, 2]
        assert m.tolist() == [1.0, 2.0, 0.5]

    def test_group_by_owner(self):
        assignment = np.array([0, 1, 0, 2], dtype=np.int64)
        v = np.array([0, 1, 2, 3, 1], dtype=np.int64)
        m = np.arange(5, dtype=np.float64)
        groups = {
            owner: (vc.tolist(), mc.tolist())
            for owner, vc, mc in group_by_owner(assignment[v], v, m)
        }
        assert groups == {
            0: ([0, 2], [0.0, 2.0]),
            1: ([1, 1], [1.0, 4.0]),
            2: ([3], [3.0]),
        }

    def test_wcc_key_roundtrip(self):
        kernel = LocalWccKernel(max_hops=5)
        for label in (0, 3, 17):
            for hops in range(6):
                key = kernel.encode_key(label, hops)
                assert kernel.decode_key(key) == (label, hops)
        # the program's preference order maps to plain key order
        assert kernel.encode_key(1, 0) < kernel.encode_key(2, 5)
        assert kernel.encode_key(2, 4) < kernel.encode_key(2, 3)

    def test_csr_view_cached(self):
        g = grid_graph(3, 3)
        view = g.csr()
        assert view is g.csr()
        assert view.indptr is g.indptr
        g._invalidate_csr()
        assert view is not g.csr()
