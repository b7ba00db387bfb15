"""Vectorized kernel layer: equivalence with the generic path + unit tests."""

import contextlib
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engine_harness import ScriptedController
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
    VertexFunctionKernel,
    WavefrontKernel,
    combine_by_vertex,
    expand_edges,
    group_by_owner,
)
from repro.engine.checkpoint import QueryCheckpoint
from repro.engine.query import QueryRuntime
from repro.graph import (
    DiGraph,
    GraphBuilder,
    GraphDelta,
    MutableDiGraph,
    NewVertexSpec,
    grid_graph,
    rmat_graph,
    watts_strogatz,
)
from repro.graph.builder import csr_arrays_from_edges
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
from repro.simulation.faults import FaultPlan, WorkerCrash


def build_engine(graph, k=3, sync_mode=SyncMode.HYBRID, faults=None, **cfg):
    assignment = HashPartitioner(seed=0).partition(graph, k)
    return QGraphEngine(
        graph,
        make_cluster("M2", k),
        assignment,
        controller=Controller(k),
        config=EngineConfig(
            sync_mode=sync_mode, adaptive=False, **cfg
        ),
        faults=faults,
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
    half-way through the run (``scope_mask``) and after finish (the
    ``answer`` columns) — and equals what the scope set it replaced
    held."""
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
        assert not isinstance(vec.runtimes[0].kernel, VertexFunctionKernel)
        assert isinstance(gen.runtimes[0].kernel, VertexFunctionKernel)
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
        assert not isinstance(vec.runtimes[0].kernel, VertexFunctionKernel)
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
    """A custom program with no kernel, so it runs through the
    vertex-function kernel.  Its messages and states are equal-length
    tuples — what ``np.asarray`` would stack into a 2-D array: each vertex
    keeps ``(hops, seed)`` of its nearest seed within ``max_hops``."""

    kind = "echo"

    def __init__(self, max_hops=6):
        self.max_hops = max_hops

    def init_messages(self, graph, initial_vertices):
        return [(v, (0, v)) for v in initial_vertices]

    def combine(self, a, b):
        return min(a, b)

    def compute(self, ctx, vertex, state, message):
        if state is not None and state <= message:
            return state
        hops, seed = message
        if hops < self.max_hops:
            for nbr in ctx.graph.out_neighbors(vertex):
                ctx.send(int(nbr), (hops + 1, seed))
        return message


def _echo_oracle(graph, seeds, max_hops):
    """``_TupleEcho``'s answer by a plain multi-source BFS."""
    best = {v: (0, v) for v in seeds}
    frontier = sorted(best)
    for hops in range(1, max_hops + 1):
        reached = {}
        for v in frontier:
            for nbr in graph.out_neighbors(v).tolist():
                candidate = (hops, best[v][1])
                if nbr not in best and candidate < reached.get(nbr, (hops, np.inf)):
                    reached[nbr] = candidate
        best.update(reached)
        frontier = sorted(reached)
    return best


def _assert_flat_tuple_boxes(qr):
    """Every mailbox holds a 1-D object array of 2-tuples."""
    for box in (*qr.mailboxes.values(), *qr.next_mailboxes.values()):
        vertices, messages = box.concat()
        assert messages.shape == vertices.shape and messages.dtype == object
        assert all(type(m) is tuple and len(m) == 2 for m in messages.tolist())


class _Collect(VertexProgram):
    """Keeps the combined message; the default ``combine`` collects a
    vertex's messages into a tuple, so it shows their order."""

    def init_messages(self, graph, initial_vertices):
        return []

    def compute(self, ctx, vertex, state, message):
        return message


def test_vertex_function_kernel_folds_in_mailbox_order():
    """Each vertex's messages fold left with ``program.combine`` in mailbox
    order; the vertices come out sorted, and a tuple message stays one
    object entry."""
    kernel = VertexFunctionKernel(_Collect())
    vertices, messages = kernel.encode_messages(
        [(5, 3), (2, "x"), (5, 1), (9, (7, 8)), (5, 2)]
    )
    assert messages.shape == (5,) and messages.dtype == object
    vertices, messages = kernel.combine_arrays(vertices, messages)
    assert vertices.tolist() == [2, 5, 9]
    assert messages.tolist() == ["x", (3, 1, 2), (7, 8)]


class TestFallback:
    def test_custom_program_uses_generic_path(self, social):
        eng = build_engine(social)
        eng.submit(Query(0, _TupleEcho(), (0, 150)))
        eng.run()
        assert isinstance(eng.runtimes[0].kernel, VertexFunctionKernel)
        assert eng.runtimes[0].finished
        assert eng.query_result(0) == _echo_oracle(social, (0, 150), 6)

    def test_tuple_state_capture_restore_capture(self, social):
        """capture . restore . capture == capture for tuple state and tuple
        messages, on a permuted assignment; and a worker crash (a real
        checkpoint restore with re-homing) leaves the answers of the
        static run."""
        eng = build_engine(social, checkpoint_interval=2)
        for qid, seeds in enumerate([(0, 150), (40,), (77, 201, 260)]):
            eng.submit(Query(qid, _TupleEcho(), seeds))
        live = {}
        while not live:
            eng.run(until=eng.queue.peek_time())
            live = {
                qid: eng.runtimes[qid]
                for qid in sorted(eng.running)
                if eng.runtimes[qid].scope_mask.any()
                and any(eng.runtimes[qid].next_mailboxes.values())
            }
        permuted = (eng.assignment + 1) % eng.cluster.num_workers
        for qr in live.values():
            _assert_flat_tuple_boxes(qr)
            ck1 = QueryCheckpoint.capture(qr)
            qr.kstate = qr.kernel.make_state(social)
            qr.scope_mask[:] = False
            ck1.restore(qr, permuted)
            _assert_flat_tuple_boxes(qr)
            ck2 = QueryCheckpoint.capture(qr)
            assert ck2.kstate.shape == ck1.kstate.shape == (social.num_vertices,)
            assert ck2.kstate.tolist() == ck1.kstate.tolist()
            assert np.array_equal(ck2.scope_mask, ck1.scope_mask)
            for generation in ("mailboxes", "next_mailboxes"):
                pairs = [
                    sorted(
                        (v, m)
                        for box in getattr(ck, generation).values()
                        for v, m in zip(*(part.tolist() for part in box.concat()))
                    )
                    for ck in (ck1, ck2)
                ]
                assert pairs[0] == pairs[1]
            for worker, box in qr.mailboxes.items():
                assert set(permuted[box.concat()[0]].tolist()) <= {worker}

        static = build_engine(social)
        crashed = build_engine(
            social,
            checkpoint_interval=2,
            faults=FaultPlan(seed=0, crashes=(WorkerCrash(time=2.0e-4, worker=1),)),
        )
        for engine in (static, crashed):
            for qid, seeds in enumerate([(0, 150), (40,), (77, 201, 260)]):
                engine.submit(Query(qid, _TupleEcho(), seeds))
            engine.run()
        assert [r.queries_rolled_back for r in crashed.trace.recoveries] == [3]
        for qid, seeds in enumerate([(0, 150), (40,), (77, 201, 260)]):
            answer = static.query_result(qid)
            assert answer == _echo_oracle(social, seeds, 6)
            assert crashed.query_result(qid) == answer

    def test_tuple_messages_survive_a_partial_rebucket(self, monkeypatch):
        """A partial STOP/START re-homes a kernel-less query's tuple
        messages mid-flight; its answer equals the static run's."""
        n = 400
        builder = GraphBuilder(n)
        for i in range(n - 1):
            builder.add_bidirectional_edge(i, i + 1, 1.0)
        graph = builder.build()
        rebucketed = []
        rebucket = QueryRuntime.rebucket

        def spy(qr, assignment, workers=None):
            held = sum(map(len, (*qr.mailboxes.values(), *qr.next_mailboxes.values())))
            rebucket(qr, assignment, workers)
            _assert_flat_tuple_boxes(qr)
            rebucketed.append(held)

        monkeypatch.setattr(QueryRuntime, "rebucket", spy)
        answers = []
        for adaptive in (True, False):
            engine = QGraphEngine(
                graph,
                make_cluster("M2", 4),
                np.repeat(np.arange(4, dtype=np.int64), 100),
                controller=ScriptedController(4, np.arange(50, dtype=np.int64)),
                config=EngineConfig(adaptive=adaptive, repartition_mode="partial"),
            )
            engine.submit(Query(0, _TupleEcho(max_hops=n), (0,)))
            trace = engine.run()
            assert len(trace.repartitions) == int(adaptive)
            answers.append(engine.query_result(0))
        assert rebucketed and rebucketed[0] > 0
        assert answers[0] == answers[1] == _echo_oracle(graph, (0,), n)

    def test_generic_path_helper_forces_generic(self, social):
        eng = build_engine(social)
        eng.submit(Query(0, SsspProgram(0), (0,)))
        with generic_path():
            eng.run()
        assert isinstance(eng.runtimes[0].kernel, VertexFunctionKernel)

    def test_generic_path_helper_restores_kernels_on_error(self, social):
        with pytest.raises(RuntimeError):
            with generic_path():
                raise RuntimeError("leave the block early")
        eng = build_engine(social)
        eng.submit(Query(0, SsspProgram(0), (0,)))
        eng.run()
        assert not isinstance(eng.runtimes[0].kernel, VertexFunctionKernel)

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
        assert isinstance(engines[0].runtimes[0].kernel, VertexFunctionKernel)
        assert not isinstance(engines[1].runtimes[0].kernel, VertexFunctionKernel)

    def test_state_materialized_after_finish(self, social):
        eng = build_engine(social)
        eng.submit(Query(0, SsspProgram(0), (0,)))
        eng.run()
        state = eng.runtimes[0].materialized_state()
        assert state[0] == 0.0
        assert len(state) == eng.query_result(0)["settled"]


#: the seven kernel programs: factory, seeds, state bytes per scope entry
KERNEL_PROGRAMS = {
    "sssp": (lambda: SsspProgram(5), (5,), 8),
    "poi": (lambda: PoiProgram(0), (0,), 8),
    "bfs": (lambda: BfsProgram(1, target=200), (1,), 8),
    "khop": (lambda: KHopProgram(7, 3), (7,), 8),
    "reach": (lambda: ReachabilityProgram(9, 280), (9,), 1),
    "pagerank": (lambda: LocalPageRankProgram(11, epsilon=1e-5), (11,), 16),
    "wcc": (lambda: LocalWccProgram(4), (3, 8, 12), 8),
}


def run_scenario(graph, case, scenario, at, path):
    """One query of ``case`` to the end on ``path``: ``"plain"``; ``"churn"``
    (a vertex wired to every 25th vertex appended at ``at``); ``"crash"``
    (worker 1 dies at ``at``, checkpoints every 2 iterations).  Returns the
    engine and the query's ``materialized_state()`` as ``release()`` found it."""
    factory, seeds, _bytes = KERNEL_PROGRAMS[case]
    faults, cfg = None, {}
    if scenario == "churn":
        graph = MutableDiGraph.from_digraph(graph)
    if scenario == "crash":
        faults = FaultPlan(seed=0, crashes=(WorkerCrash(time=at, worker=1),))
        cfg = dict(checkpoint_interval=2)
    eng = build_engine(graph, faults=faults, **cfg)
    eng.submit(Query(0, factory(), seeds))
    if scenario == "churn":
        edges = tuple((v, 1.0) for v in range(0, graph.num_vertices, 25))
        spec = NewVertexSpec(x=0.0, y=0.0, edges=edges)
        eng.submit_update(GraphDelta(new_vertices=[spec]), at)
    running = {}
    release = QueryRuntime.release

    def recording_release(qr):
        running[qr.query.query_id] = qr.materialized_state()
        release(qr)

    QueryRuntime.release = recording_release
    try:
        with path:
            eng.run()
    finally:
        QueryRuntime.release = release
    return eng, running[0]


@pytest.fixture(scope="module")
def tagged_social(social):
    tags = np.zeros(social.num_vertices, dtype=bool)
    tags[[27, 152]] = True
    return DiGraph(
        social.indptr, social.indices, social.weights, coords=social.coords, tags=tags
    )


class TestFinishedAnswerColumns:
    """A finished kernel query keeps its answer as columns — the ``int64``
    scope ids and each state column gathered at them — and answers
    ``materialized_state()``, ``scope_vertices()`` and ``query_result()``
    from them exactly as the running query and the generic path do, also
    after a churn epoch and after a crash rolled it back."""

    @pytest.mark.parametrize("scenario", ["plain", "churn", "crash"])
    @pytest.mark.parametrize("case", sorted(KERNEL_PROGRAMS))
    def test_answer_columns(self, tagged_social, case, scenario):
        plain = run_scenario(
            tagged_social, case, "plain", None, contextlib.nullcontext()
        )
        at = 0.3 * plain[0].trace.makespan()
        vec, running = plain if scenario == "plain" else run_scenario(
            tagged_social, case, scenario, at, contextlib.nullcontext()
        )
        gen, _ = run_scenario(tagged_social, case, scenario, at, generic_path())
        qr, ref = vec.runtimes[0], gen.runtimes[0]
        assert qr.finished
        assert not isinstance(qr.kernel, VertexFunctionKernel)
        assert isinstance(ref.kernel, VertexFunctionKernel)
        assert qr.kstate is None and qr.scope_mask is None
        assert vec.trace.queries[0].end_time > at
        if scenario == "churn":
            assert len(vec.trace.churn_events) == 1
        if scenario == "crash":
            assert [r.queries_rolled_back for r in vec.trace.recoveries] == [1]

        scope = qr.scope_vertices()
        _factory, _seeds, state_bytes = KERNEL_PROGRAMS[case]
        assert scope.dtype == np.int64
        assert sum(column.nbytes for column in qr.answer) == scope.size * (
            8 + state_bytes
        )
        assert np.array_equal(scope, ref.scope_vertices())
        # the finished answer is the running query's last snapshot
        assert qr.materialized_state() == running
        state, ref_state = qr.materialized_state(), ref.materialized_state()
        if case == "pagerank":
            # sum-combining reorders float additions: same scope, close values
            assert state.keys() == ref_state.keys()
            for v, (rank, residual) in state.items():
                assert (rank, residual) == pytest.approx(ref_state[v])
        else:
            assert state == ref_state
            assert vec.query_result(0) == gen.query_result(0)


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

    def test_expand_edges_skips_vertices_without_out_edges(self):
        """Zero-degree sources in any position, repeated sources: each
        source's edges in CSR order, sources in the order given."""
        # out-edges 0 -> 1, 2; 2 -> 3; 4 -> 0, 1, 5; vertices 1, 3, 5 have none
        g = DiGraph(
            np.array([0, 2, 2, 3, 3, 6, 6]), np.array([1, 2, 3, 0, 1, 5]), np.ones(6)
        )
        for order in ([1, 0, 3, 4], [4, 1, 1, 2, 5], [0], [3, 5], [4, 4, 0]):
            vertices = np.array(order, dtype=np.int64)
            edge_idx, src_pos = expand_edges(g.indptr, vertices)
            expected = [
                (pos, int(nbr))
                for pos, v in enumerate(order)
                for nbr in g.out_neighbors(v)
            ]
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


def _mailbox_sizes_hold(box):
    """``len(box)`` — kept by ``append`` — against what the chunks hold."""
    chunk_sum = sum(chunk.size for chunk in box._vertex_chunks)
    assert len(box) == chunk_sum == box.concat()[0].size
    assert sum(chunk.size for chunk in box._message_chunks) == chunk_sum
    assert bool(box) == (chunk_sum > 0)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_array_mailbox_length_is_the_sum_of_its_chunks(data):
    """An ``ArrayMailbox`` counts its messages as they are appended instead
    of summing its chunks on every ``len``: the count equals the chunk sum
    after ``append`` (empty chunks included), ``clone``, ``rebucket`` (full
    and partial), checkpoint capture and restore, and ``concat_all``."""
    g = grid_graph(3, 4)
    n, k = g.num_vertices, data.draw(st.integers(1, 4), label="k")
    assignments = st.lists(st.integers(0, k - 1), min_size=n, max_size=n).map(
        lambda owners: np.array(owners, dtype=np.int64)
    )
    qr = QueryRuntime(Query(0, SsspProgram(0), (0,)), g)
    chunks = st.lists(st.integers(0, n - 1), max_size=6).map(
        lambda vs: np.array(vs, dtype=np.int64)
    )
    for _chunk in range(data.draw(st.integers(0, 8), label="chunks")):
        vertices = data.draw(chunks, label="vertices")
        qr.deliver_array(
            data.draw(st.integers(0, k - 1), label="worker"),
            vertices,
            np.arange(vertices.size, dtype=np.float64),
            to_next=data.draw(st.booleans(), label="next"),
        )

    def all_boxes(*generations):
        return [box for boxes in generations for box in boxes.values()]

    def check(*generations):
        boxes = all_boxes(*generations)
        for box in boxes:
            _mailbox_sizes_hold(box)
        assert ArrayMailbox.concat_all(boxes)[0].size == sum(map(len, boxes))

    check(qr.mailboxes, qr.next_mailboxes)
    total = sum(map(len, all_boxes(qr.mailboxes, qr.next_mailboxes)))
    for box in all_boxes(qr.mailboxes):
        copy = box.clone()
        _mailbox_sizes_hold(copy)
        assert len(copy) == len(box)
    checkpoint = QueryCheckpoint.capture(qr)
    check(checkpoint.mailboxes, checkpoint.next_mailboxes)
    halted = data.draw(
        st.none() | st.sets(st.integers(0, k - 1)), label="rebucketed workers"
    )
    qr.rebucket(data.draw(assignments, label="assignment"), halted)
    check(qr.mailboxes, qr.next_mailboxes)
    assert sum(map(len, all_boxes(qr.mailboxes, qr.next_mailboxes))) == total
    checkpoint.restore(qr, data.draw(assignments, label="restore assignment"))
    check(qr.mailboxes, qr.next_mailboxes)
    assert sum(map(len, all_boxes(qr.mailboxes, qr.next_mailboxes))) == total


def _vertices(n):
    return st.integers(0, n - 1)


#: the four wavefront programs on ``n`` vertices, drawn with the parameters
#: that pick their terminal rule (none, a target, the tags) and depth cap
WAVEFRONT_PROGRAMS = {
    "sssp": lambda n: st.builds(SsspProgram, _vertices(n)),
    "sssp-target": lambda n: st.builds(SsspProgram, _vertices(n), _vertices(n)),
    "poi": lambda n: st.builds(PoiProgram, _vertices(n)),
    "bfs": lambda n: st.builds(
        BfsProgram, _vertices(n), st.none() | _vertices(n), st.none() | st.integers(0, 4)
    ),
    "khop": lambda n: st.builds(KHopProgram, _vertices(n), st.integers(0, 4)),
}


@settings(max_examples=300, deadline=None)
@given(data=st.data(), case=st.sampled_from(sorted(WAVEFRONT_PROGRAMS)))
def test_wavefront_step_is_the_scalar_vertex_function(data, case):
    """One ``WavefrontKernel.step`` from a random prior state equals the
    same program's ``compute`` run through ``VertexFunctionKernel``: the
    same state, targets, messages, sources and contributions, with no
    committed bound and with a drawn one."""
    n = data.draw(st.integers(1, 8), label="n")
    edges = data.draw(
        st.lists(
            st.tuples(_vertices(n), _vertices(n), st.integers(0, 4)),
            min_size=n,
            max_size=4 * n,
        ),
        label="edges",
    )
    src = np.array([u for u, _v, _w in edges], dtype=np.int64)
    dst = np.array([v for _u, v, _w in edges], dtype=np.int64)
    weights = np.array([w / 2.0 for _u, _v, w in edges], dtype=np.float64)
    tags = data.draw(st.lists(st.booleans(), min_size=n, max_size=n), label="tags")
    graph = DiGraph(
        *csr_arrays_from_edges(src, dst, weights, n), tags=np.array(tags, dtype=bool)
    )
    program = data.draw(WAVEFRONT_PROGRAMS[case](n), label="program")
    kernel = program.make_kernel(graph)
    assert isinstance(kernel, WavefrontKernel)
    reference = VertexFunctionKernel(program)

    # labels on a half-unit grid, so that a message often ties the state,
    # a candidate the bound, and a zero-weight edge relays its own label
    grid = [x if program.unit else x / 2.0 for x in range(7)]
    label = st.sampled_from(grid)
    prior = data.draw(st.lists(st.none() | label, min_size=n, max_size=n), label="prior")
    order = data.draw(st.permutations(range(n)), label="order")
    frontier = order[: data.draw(st.integers(0, n), label="frontier size")]
    vertices = np.array(frontier, dtype=np.int64)
    messages = data.draw(
        st.lists(label, min_size=vertices.size, max_size=vertices.size), label="messages"
    )

    for bound in (None, data.draw(label, label="bound")):
        committed = {"bound": bound}
        state = kernel.make_state(graph)
        ref_state = reference.make_state(graph)
        for vertex, value in enumerate(prior):
            if value is not None:
                state[vertex] = ref_state[vertex] = value
        targets, sent, sources, contribs = kernel.step(
            graph, state, vertices, np.array(messages, dtype=kernel.message_dtype), committed
        )
        ref_targets, ref_sent, ref_sources, ref_contribs = reference.step(
            graph, ref_state, vertices, np.array(messages, dtype=object), committed
        )

        unset = kernel.state_fill
        assert [None if x == unset else x for x in state.tolist()] == ref_state.tolist()
        assert targets.tolist() == ref_targets.tolist()
        assert sent.dtype == kernel.message_dtype
        assert sent.tolist() == ref_sent.tolist()
        assert sources.tolist() == ref_sources.tolist()
        assert contribs.keys() == ref_contribs.keys()
        for name, (positions, values) in contribs.items():
            assert positions.tolist() == ref_contribs[name][0].tolist()
            assert values.tolist() == ref_contribs[name][1].tolist()
