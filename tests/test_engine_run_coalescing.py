"""Run-coalesced compute dispatch is an identity transformation.

The engine executes a *run* — the adjacent ``task_ready`` events of one
query at one timestamp — as one fused kernel pass
(``SimWorker.execute_iteration`` over several workers), routes its sends
with one chunk per destination and charges virtual time from one
(member, destination) count matrix.  Four things are checked here:

* the fused pass ``==`` the per-task execution it replaced, which survives
  below as the oracle (``oracle_execute`` is that commit's
  ``_execute_vectorized`` with its own ``np.r_`` helpers), member by member
  and field by field, over all seven kernels — mailboxes compared as the
  bytes of their concatenation, which is all any reader sees of them;
* the charging loop ``==`` the per-destination dict loop it replaced
  (``oracle_charge``: that commit's ``compute_duration`` + ``transfer`` +
  ``_faulty_transfer`` order with its own copies of the three formulas),
  float for float, with and without message faults;
* run formation: what cuts a run, and that an engine whose queue hides its
  head (``peek() -> None``, so every run has length 1 — per-task execution)
  pops the same events with the same sequence numbers;
* the event budget and ``run(until=...)`` count coalesced events as events.
"""

import contextlib
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engine_harness import LoggedQueue, controller_config, road_network
from reference_impls import generic_path
from repro.core import Controller
from repro.engine import (
    EngineConfig,
    IterationResult,
    QGraphEngine,
    Query,
    QueryRuntime,
    SimWorker,
    SyncMode,
)
from repro.engine.kernels import VertexFunctionKernel
from repro.engine.vertex_program import reduce_aggregator
from repro.errors import EngineError
from repro.graph import DiGraph, grid_graph, watts_strogatz
from repro.graph.delta import MutableDiGraph
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
from repro.simulation.cluster import ClusterSpec, make_cluster
from repro.simulation.events import EventQueue
from repro.simulation.faults import FaultPlan, WorkerCrash
from repro.simulation.network import NetworkModel
from repro.workload.generator import QUERY_KINDS, PhaseSpec, WorkloadGenerator


# ----------------------------------------------------------------------
# the oracle: per-task execution as it was before runs
# ----------------------------------------------------------------------
def oracle_combine_by_vertex(vertices, messages, combine):
    if vertices.size == 0:
        return vertices, messages
    order = np.argsort(vertices, kind="stable")
    sv = vertices[order]
    sm = messages[order]
    starts = np.flatnonzero(np.r_[True, sv[1:] != sv[:-1]])
    return sv[starts], combine.reduceat(sm, starts)


def oracle_group_by_owner(assignment, vertices, messages):
    if vertices.size == 0:
        return
    owners = assignment[vertices]
    order = np.argsort(owners, kind="stable")
    ov = owners[order]
    sv = vertices[order]
    sm = messages[order]
    starts = np.flatnonzero(np.r_[True, ov[1:] != ov[:-1]])
    bounds = np.r_[starts, ov.size]
    for i in range(starts.size):
        lo, hi = int(bounds[i]), int(bounds[i + 1])
        yield int(ov[lo]), sv[lo:hi], sm[lo:hi]


@dataclass
class OracleResult:
    """``IterationResult`` as it was: one local count, one dict of remote
    counts in the order the destinations were first sent to."""

    executed_vertices: int = 0
    visited_edges: int = 0
    local_messages: int = 0
    remote_inbound: int = 0
    remote_messages: Dict[int, int] = field(default_factory=dict)
    activated: List[int] = field(default_factory=list)


def oracle_execute(worker, qr, graph, assignment):
    """One (query, iteration, worker) task: the ``execute_iteration`` +
    ``_execute_vectorized`` pair of the commit before run coalescing.  The
    kernel steps over this worker's frontier alone, and its contributions
    are reduced the way each kernel then did itself."""
    result = OracleResult()
    result.remote_inbound = qr.pending_remote_inbound.pop(worker.wid, 0)
    mailbox = qr.mailboxes.pop(worker.wid, None)
    if not mailbox:
        return result
    kernel = qr.kernel
    vertices, messages = oracle_combine_by_vertex(
        *mailbox.concat(), kernel.combine
    )
    result.executed_vertices = int(vertices.size)
    indptr = graph.csr().indptr
    result.visited_edges = int((indptr[vertices + 1] - indptr[vertices]).sum())

    newly = vertices[~qr.scope_mask[vertices]]
    if newly.size:
        qr.scope_mask[newly] = True
        result.activated.extend(newly.tolist())

    agg_partial = qr.agg_partials.setdefault(worker.wid, {})
    for name in qr.agg_committed:
        agg_partial.setdefault(name, None)

    targets, out_messages, _sources, contribs = kernel.step(
        graph, qr.kstate, vertices, messages, qr.agg_committed
    )
    for name, (_positions, values) in contribs.items():
        reduced = values.min().item() if name == "bound" else True
        agg_partial[name] = (
            (reduced,) if agg_partial[name] is None else agg_partial[name] + (reduced,)
        )

    for dest, vchunk, mchunk in oracle_group_by_owner(
        assignment, targets, out_messages
    ):
        qr.deliver_array(dest, vchunk, mchunk)
        count = int(vchunk.size)
        if dest == worker.wid:
            result.local_messages += count
        else:
            result.remote_messages[dest] = (
                result.remote_messages.get(dest, 0) + count
            )
            qr.pending_remote_inbound[dest] = (
                qr.pending_remote_inbound.get(dest, 0) + count
            )
    worker.vertex_executions += result.executed_vertices
    return result


# ----------------------------------------------------------------------
# (i) fused pass == oracle, member by member
# ----------------------------------------------------------------------
def _tagged_graph():
    g = watts_strogatz(96, 6, 0.2, seed=5)
    tags = np.zeros(g.num_vertices, dtype=bool)
    tags[::3] = True  # a third of the vertices: several on every worker
    return DiGraph(g.indptr, g.indices, g.weights, tags=tags)


GRAPH = _tagged_graph()
N = GRAPH.num_vertices

#: kernel kind -> (program factory, random message drawer)
KINDS = {
    "sssp": (lambda: SsspProgram(0, 40), lambda rng, n: rng.random(n) * 4.0),
    "poi": (lambda: PoiProgram(0), lambda rng, n: rng.random(n) * 4.0),
    "bfs": (
        lambda: BfsProgram(1, target=50, max_depth=5),
        lambda rng, n: rng.integers(0, 6, n),
    ),
    "khop": (lambda: KHopProgram(2, 3), lambda rng, n: rng.integers(0, 5, n)),
    "reach": (
        lambda: ReachabilityProgram(3, 60),
        lambda rng, n: np.ones(n, dtype=bool),
    ),
    "pagerank": (
        lambda: LocalPageRankProgram(4, epsilon=1e-3),
        lambda rng, n: rng.random(n) * 0.05,
    ),
    # packed (label, hops) keys of LocalWccKernel(max_hops=4): base 6
    "wcc": (
        lambda: LocalWccProgram(4),
        lambda rng, n: rng.integers(0, N, n) * 6 + rng.integers(0, 5, n),
    ),
}


def _deliver_random(rng, kind, qrs, assignment):
    """The same random raw chunks into the current mailboxes of every
    runtime in ``qrs``: duplicate targets within and across chunks (every
    third vertex of a PageRank frontier gets >= 3 chunks)."""
    draw = KINDS[kind][1]
    frontier = rng.choice(N, size=int(rng.integers(1, 40)), replace=False)
    for _chunk in range(int(rng.integers(1, 5))):
        vertices = rng.choice(frontier, size=int(rng.integers(1, 50)))
        if kind == "pagerank":
            vertices = np.concatenate([vertices, np.tile(frontier[::3], 3)])
        messages = draw(rng, vertices.size)
        for qr in qrs:
            for dest, vchunk, mchunk in oracle_group_by_owner(
                assignment, vertices, messages
            ):
                qr.deliver_array(dest, vchunk.copy(), mchunk.copy(), to_next=False)


def _commit_aggregators(qr):
    """What ``QGraphEngine._reduce_aggregators`` does at the barrier."""
    specs = qr.query.program.aggregators()
    for partials in qr.agg_partials.values():
        for name, partial in partials.items():
            qr.agg_committed[name] = reduce_aggregator(
                specs[name], qr.agg_committed[name], partial
            )
    qr.agg_partials.clear()


def _kstate_bytes(kstate):
    parts = kstate if isinstance(kstate, tuple) else (kstate,)
    return [(p.dtype, p.tobytes()) for p in parts]


def _box_bytes(box):
    """A mailbox as its readers see it (``concat_all``, ``rebucket``,
    ``purge_dead_targets``, checkpoints): the concatenation of its chunks."""
    vertices, messages = box.concat()
    return (vertices.dtype, vertices.tolist(), messages.dtype, messages.tobytes())


def _contributions(agg_partials):
    """The partials without the entries that carry no contribution: the
    oracle gives every computing member a partial pre-filled with ``None``,
    the fused pass creates one at a member's first contribution."""
    kept = {
        w: {name: partial for name, partial in partials.items() if partial is not None}
        for w, partials in agg_partials.items()
    }
    return {w: partials for w, partials in kept.items() if partials}


def _assert_same_runtime(fused, oracle):
    assert _kstate_bytes(fused.kstate) == _kstate_bytes(oracle.kstate)
    assert np.array_equal(fused.scope_mask, oracle.scope_mask)
    # repr: dict order, tuple contents and int/float/bool types in one go
    assert repr(fused.agg_partials) == repr(_contributions(oracle.agg_partials))
    assert list(fused.pending_remote_inbound.items()) == list(
        oracle.pending_remote_inbound.items()
    )
    assert list(fused.mailboxes) == list(oracle.mailboxes)
    assert list(fused.next_mailboxes) == list(oracle.next_mailboxes)
    for w, box in fused.next_mailboxes.items():
        assert box and _box_bytes(box) == _box_bytes(oracle.next_mailboxes[w])


def _assert_same_result(fused, oracle):
    assert fused.local == oracle.local_messages and type(fused.local) is int
    # the oracle's dict is destination-ascending: the order of the charging
    assert fused.remote == list(oracle.remote_messages.items())
    assert all(type(d) is int and type(c) is int for d, c in fused.remote)
    for name in ("executed_vertices", "visited_edges", "remote_inbound"):
        assert getattr(fused, name) == getattr(oracle, name)
        assert type(getattr(fused, name)) is type(getattr(oracle, name))


def _assert_same_activations(fused, oracle_results):
    """The run's scope additions are one ``int64`` chunk: the per-task
    oracle's activations concatenated in run order (no chunk when none)."""
    chunks, fused.activated = fused.activated, []
    want = [v for result in oracle_results for v in result.activated]
    if not want:
        assert chunks == []
        return
    assert len(chunks) == 1 and chunks[0].dtype == np.int64
    assert chunks[0].tolist() == want


def _chunk_counts(qr):
    return {w: len(box._vertex_chunks) for w, box in qr.next_mailboxes.items()}


def _watch_sources(kernel):
    """Wrap ``kernel.step`` so every call checks the ``sources`` contract
    the routing depends on, over the fused (multi-member) frontier."""
    step = kernel.step

    def checked(graph, state, vertices, messages, agg_committed):
        out = step(graph, state, vertices, messages, agg_committed)
        targets, out_messages, sources, _contribs = out
        assert targets.size == out_messages.size == sources.size
        assert np.all(sources[1:] >= sources[:-1])
        return out

    kernel.step = checked


@settings(max_examples=140, deadline=None)
@given(
    kind=st.sampled_from(sorted(KINDS)),
    k=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_fused_run_equals_per_task_oracle(kind, k, seed):
    rng = np.random.default_rng(seed)
    assignment = rng.integers(0, k, N)
    machine = make_cluster("M2", k).machine
    runtimes, workers = [], []
    for _side in range(2):
        qr = QueryRuntime(Query(0, KINDS[kind][0](), (0,)), GRAPH)
        # stale inbound counts from an earlier iteration, for the replay
        qr.pending_remote_inbound = {w: 3 + w for w in range(0, k, 2)}
        runtimes.append(qr)
        workers.append([SimWorker(w, machine) for w in range(k)])
    fused, oracle = runtimes
    _watch_sources(fused.kernel)
    _deliver_random(rng, kind, runtimes, assignment)

    for _iteration in range(3):
        owners = [int(w) for w in rng.permutation(list(fused.mailboxes))]
        if not owners:
            break
        # cut the iteration's workers into runs of random length
        cuts = sorted(rng.choice(len(owners) + 1, size=2).tolist())
        for run in (owners[: cuts[0]], owners[cuts[0] : cuts[1]], owners[cuts[1] :]):
            if not run:
                continue
            before = _chunk_counts(fused)
            got = SimWorker.execute_iteration(
                workers[0], run, fused, GRAPH, assignment
            )
            want = [
                oracle_execute(workers[1][w], oracle, GRAPH, assignment)
                for w in run
            ]
            assert len(got) == len(want)
            for a, b in zip(got, want):
                _assert_same_result(a, b)
            _assert_same_activations(fused, want)
            _assert_same_runtime(fused, oracle)
            # one chunk per destination per pass, however many members sent
            after = _chunk_counts(fused)
            assert all(after[w] - before.get(w, 0) <= 1 for w in after)
            sent_to = {dest for a in got for dest, _count in a.remote}
            sent_to.update(wid for wid, a in zip(run, got) if a.local)
            assert sum(after.values()) - sum(before.values()) == len(sent_to)
        assert [w.vertex_executions for w in workers[0]] == [
            w.vertex_executions for w in workers[1]
        ]
        for qr in runtimes:
            _commit_aggregators(qr)
            qr.rotate_mailboxes()
        assert fused.agg_committed == oracle.agg_committed
        # fresh raw traffic on top of what the iteration produced
        _deliver_random(rng, kind, runtimes, assignment)


def test_poi_partials_stay_per_worker():
    """Tagged vertices on several members of one run: every member gets its
    own partial — the minimum over *its* tagged vertices only."""
    k = 4
    assignment = np.arange(N) % k
    machine = make_cluster("M2", k).machine
    qr = QueryRuntime(Query(0, PoiProgram(0), (0,)), GRAPH)
    tagged = np.flatnonzero(GRAPH.tags)[:12]
    distances = np.linspace(5.0, 1.0, tagged.size)
    for dest, vchunk, mchunk in oracle_group_by_owner(assignment, tagged, distances):
        qr.deliver_array(dest, vchunk, mchunk, to_next=False)
    run = sorted(qr.mailboxes)
    assert len(run) >= 2
    SimWorker.execute_iteration(
        [SimWorker(w, machine) for w in range(k)], run, qr, GRAPH, assignment
    )
    for w in run:
        mine = distances[assignment[tagged] == w]
        assert qr.agg_partials[w] == {"bound": (float(mine.min()),)}


@pytest.mark.parametrize("path", ["kernel", "generic"])
def test_a_member_that_contributes_nothing_has_no_partial(path):
    """A worker's partial is created at its first contribution: a member
    that computes only untagged vertices leaves no entry at all."""
    assignment = np.arange(N) % 2
    machine = make_cluster("M2", 2).machine
    with generic_path() if path == "generic" else contextlib.nullcontext():
        qr = QueryRuntime(Query(0, PoiProgram(0), (0,)), GRAPH)
    assert isinstance(qr.kernel, VertexFunctionKernel) == (path == "generic")
    tagged = np.flatnonzero(GRAPH.tags & (assignment == 0))[:3]
    untagged = np.flatnonzero(~GRAPH.tags & (assignment == 1))[:3]
    qr.seed_messages(
        [
            (v, d)
            for vertices in (tagged, untagged)
            for v, d in zip(
                vertices.tolist(), np.linspace(3.0, 1.0, vertices.size).tolist()
            )
        ],
        assignment,
    )
    qr.rotate_mailboxes()
    SimWorker.execute_iteration(
        [SimWorker(w, machine) for w in range(2)], [0, 1], qr, GRAPH, assignment
    )
    assert sorted(qr.agg_partials) == [0]
    assert set(qr.agg_partials[0]) == {"bound"}


def test_unknown_aggregator_raises_on_the_kernel_path():
    """A kernel contribution to an aggregator the program does not declare
    is an ``EngineError``, not a partial."""
    assignment = np.arange(N) % 2
    qr = QueryRuntime(Query(0, PoiProgram(0), (0,)), GRAPH)
    step = qr.kernel.step

    def renamed(*args):
        targets, messages, sources, contribs = step(*args)
        return targets, messages, sources, {"nope": (np.array([0]), np.array([1.0]))}

    qr.kernel.step = renamed
    qr.deliver_array(0, np.array([0]), np.array([0.0]), to_next=False)
    workers = [SimWorker(w, make_cluster("M2", 2).machine) for w in range(2)]
    with pytest.raises(EngineError, match="unknown aggregator 'nope'"):
        SimWorker.execute_iteration(workers, [0], qr, GRAPH, assignment)
    assert qr.agg_partials == {}


def test_unknown_aggregator_raises_on_the_generic_path():
    class Misnamed(SsspProgram):
        def compute(self, ctx, vertex, state, message):
            ctx.aggregate("nope", 1.0)
            return super().compute(ctx, vertex, state, message)

    graph, assignment = grid_graph(2, 2), np.zeros(4, dtype=np.int64)
    with generic_path():
        qr = QueryRuntime(Query(0, Misnamed(0), (0,)), graph)
    assert isinstance(qr.kernel, VertexFunctionKernel)
    qr.seed_messages([(0, 0.0)], assignment)
    qr.rotate_mailboxes()
    workers = [SimWorker(0, make_cluster("M2", 1).machine)]
    with pytest.raises(EngineError, match="unknown aggregator 'nope'"):
        SimWorker.execute_iteration(workers, [0], qr, graph, assignment)
    assert qr.agg_partials == {}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_step_sources_name_the_sender(kind):
    """The kernel contract the worker layer relies on: ``sources`` indexes
    the frontier, is non-decreasing, and names a vertex with that edge."""
    rng = np.random.default_rng(7)
    qr = QueryRuntime(Query(0, KINDS[kind][0](), (0,)), GRAPH)
    vertices = np.sort(rng.choice(N, size=30, replace=False))
    messages = KINDS[kind][1](rng, vertices.size).astype(qr.kernel.message_dtype)
    targets, out, sources, _contribs = qr.kernel.step(
        GRAPH, qr.kstate, vertices, messages, qr.agg_committed
    )
    assert targets.size == out.size == sources.size > 0
    assert sources.dtype == np.int64
    assert np.all(np.diff(sources) >= 0)
    for target, source in zip(targets.tolist(), sources.tolist()):
        assert target in GRAPH.out_neighbors(int(vertices[source]))


def test_a_kernelless_run_equals_its_members_one_by_one():
    """A runtime on the vertex-function kernel fuses a run like any kernel:
    the same results, ``sent`` rows and runtime state as its members
    executed one after the other."""
    g = grid_graph(4, 4)
    assignment = np.arange(16) % 2
    machine = make_cluster("M2", 2).machine

    def runtime():
        with generic_path():
            qr = QueryRuntime(Query(0, SsspProgram(0), (0, 1)), g)
        qr.seed_messages([(0, 0.0), (1, 0.0)], assignment)
        qr.rotate_mailboxes()
        return qr

    together, apart = runtime(), runtime()
    w_together = [SimWorker(w, machine) for w in range(2)]
    w_apart = [SimWorker(w, machine) for w in range(2)]
    got = SimWorker.execute_iteration(w_together, [0, 1], together, g, assignment)
    want = [
        SimWorker.execute_iteration(w_apart, [w], apart, g, assignment)[0]
        for w in (0, 1)
    ]
    assert got == want
    # a named tuple: no per-instance dict, compared field by field
    assert not hasattr(got[0], "__dict__")
    assert got[0] != got[0]._replace(visited_edges=got[0].visited_edges + 1)
    assert got[0] != got[0]._replace(remote=got[0].remote + [(1, 1)])
    assert sum(
        result.local + sum(count for _dest, count in result.remote)
        for result in got
    ) == sum(len(box) for box in together.next_mailboxes.values()) > 0
    # the scope additions: one int64 chunk for the run, in run order
    assert [chunk.dtype for chunk in together.activated] == [np.int64]
    assert (
        np.concatenate(together.activated).tolist()
        == np.concatenate(apart.activated).tolist()
        == [0, 1]
    )
    assert together.materialized_state() == apart.materialized_state()

    def boxes(qr):
        return {
            w: [part.tolist() for part in box.concat()]
            for w, box in qr.next_mailboxes.items()
        }

    assert boxes(together) == boxes(apart)
    assert list(together.next_mailboxes) == list(apart.next_mailboxes)
    assert together.pending_remote_inbound == apart.pending_remote_inbound


# ----------------------------------------------------------------------
# (ii) charging from the sent rows == the per-destination dict loop
# ----------------------------------------------------------------------
def oracle_transfer(link, num_messages):
    """``NetworkModel.num_batches`` + ``transfer`` as they were."""
    if num_messages <= 0:
        return 0, 0.0
    per_batch = min(link.batch_messages, max(link.batch_bytes // link.message_bytes, 1))
    batches = math.ceil(num_messages / per_batch)
    payload = num_messages * link.message_bytes
    return batches, (
        link.latency + batches * link.batch_overhead + payload / link.bandwidth
    )


def oracle_charge(engine, qr, run, results, now):
    """The virtual-time half of ``_execute_compute`` before this change:
    ``compute_duration`` over the ``remote_messages`` dict, then per
    destination ``transfer``, ``_faulty_transfer``, ``inbox_ready`` and the
    three counters.  Links come from the cluster, not the engine's table."""
    cluster, trace = engine.cluster, engine.trace
    for worker, result in zip(run, results):
        w = engine.workers[worker]
        links = [cluster.link(worker, dest) for dest in range(cluster.num_workers)]
        local_messages = result.local
        remote_messages = dict(result.remote)
        m = w.machine
        duration = (
            m.task_overhead_time
            + m.vertex_compute_time * result.executed_vertices
            + m.edge_compute_time * result.visited_edges
            + m.message_handling_time * local_messages
            + cluster.intra_node.deserialize_time(result.remote_inbound)
        )
        for dest, count in remote_messages.items():
            duration += links[dest].serialize_per_message * max(count, 0)
        start, finish = w.occupy(now, duration)
        qr.inflight[worker] = qr.inflight.get(worker, 0) + 1
        if result.executed_vertices:
            trace.vertices_executed(worker, start, result.executed_vertices)
        trace.local_messages += local_messages
        for dest, count in remote_messages.items():
            link = links[dest]
            batches, wire_time = oracle_transfer(link, count)
            arrival = finish + wire_time
            if engine.faults is not None:
                arrival = engine._faulty_transfer(link, count, arrival)
            qr.inbox_ready[dest] = max(qr.inbox_ready.get(dest, 0.0), arrival)
            trace.remote_messages += count
            trace.remote_batches += batches
        engine.queue.schedule(
            finish, "compute_done", query_id=qr.query.query_id, worker=worker,
            had_remote=bool(remote_messages),
        )


class OrderedPairCluster(ClusterSpec):
    """Every ordered (source, destination) pair has a link of its own.  The
    stock clusters are symmetric (``link(a, b) is link(b, a)``: same node or
    not), so only this one tells ``links[src][dst]`` from ``[dst][src]``."""

    def link(self, w1, w2):
        cell = w1 * self.num_workers + w2
        return NetworkModel(
            latency=20e-6 + 1e-6 * cell,
            bandwidth=1.0e8 + 1.0e6 * cell,
            serialize_per_message=1.0e-6 + 1.0e-8 * cell,
            batch_overhead=5.0e-6 + 1.0e-7 * cell,
            batch_messages=8 + cell % 5,
        )


#: name -> cluster.  C1 at k = 16 puts two workers on each node, so one
#: sent row mixes intra- and inter-node links (and controller links)
CHARGING_CLUSTERS = {
    "M2-8": lambda: make_cluster("M2", 8),
    "C1-16": lambda: make_cluster("C1", 16),
    "ordered-pairs-5": lambda: OrderedPairCluster(5, make_cluster("M2", 5).machine),
}


def _charging_engine(cluster, faults):
    g = grid_graph(4, 4)
    engine = QGraphEngine(
        g, cluster, np.arange(g.num_vertices) % cluster.num_workers,
        controller=Controller(cluster.num_workers),
        config=EngineConfig(adaptive=False), faults=faults,
    )
    qr = QueryRuntime(Query(0, SsspProgram(0), (0,)), g)
    engine.runtimes[0] = qr
    return engine, qr


def _draw_pass(rng, k):
    """A run (distinct workers, any order) and one result per member: about
    half the cells empty, counts that span several wire batches."""
    run = [int(w) for w in rng.permutation(k)[: int(rng.integers(1, k + 1))]]
    results = []
    for member in run:
        sent = (rng.integers(1, 200, k) * (rng.random(k) < 0.5)).tolist()
        results.append(
            IterationResult(
                executed_vertices=int(rng.integers(0, 60)),
                visited_edges=int(rng.integers(0, 400)),
                remote_inbound=int(rng.integers(0, 50)),
                local=sent[member],
                remote=[
                    (dest, count)
                    for dest, count in enumerate(sent)
                    if count and dest != member
                ],
            )
        )
    return run, results


def _charged_state(engine, qr):
    """Everything charging writes: the events (drained), the worker clocks,
    ``inbox_ready``, the counters, the workload buckets, the in-flight map
    and the next draw of the fault RNG."""
    trace = engine.trace
    return (
        [(e.time, e.seq, e.kind, e.payload) for e in engine.queue.drain()],
        [w.busy_until for w in engine.workers],
        list(qr.inbox_ready.items()),
        (trace.local_messages, trace.remote_messages, trace.remote_batches,
         trace.dropped_batches, trace.duplicated_batches),
        trace._workload,
        qr.inflight,
        None if engine._fault_rng is None else engine._fault_rng.random(),
    )


def _charge(engine, qr, run, results, now):
    """``_execute_compute`` of a run whose kernel pass returns ``results``."""
    with patch.object(
        SimWorker, "execute_iteration", lambda *_args, results=results: results
    ):
        engine._execute_compute(qr, run, now)


@settings(max_examples=60, deadline=None)
@given(
    cluster_name=st.sampled_from(sorted(CHARGING_CLUSTERS)),
    faulty=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_charging_equals_the_per_destination_oracle(cluster_name, faulty, seed):
    """``compute_done`` times, ``busy_until``, ``inbox_ready``,
    ``had_remote``, the counters and the position of the fault RNG stream,
    all with exact ``==``, over several passes that share the clocks."""
    rng = np.random.default_rng(seed)
    plan = (
        FaultPlan(seed=11, message_drop=0.2, message_duplicate=0.1)
        if faulty else None
    )
    (engine, qr), (oracle, oracle_qr) = (
        _charging_engine(CHARGING_CLUSTERS[cluster_name](), plan) for _side in range(2)
    )
    k = engine.cluster.num_workers
    now = 0.0
    for _pass in range(int(rng.integers(1, 5))):
        now += float(rng.random() < 0.7) * float(rng.random()) * 1e-3
        run, results = _draw_pass(rng, k)
        _charge(engine, qr, run, results, now)
        oracle_charge(oracle, oracle_qr, run, results, now)

    got, want = _charged_state(engine, qr), _charged_state(oracle, oracle_qr)
    assert got == want
    events, busy, inbox, counters = got[:4]
    assert [e[3]["had_remote"] for e in events] and all(
        type(e[0]) is float and type(e[3]["had_remote"]) is bool for e in events
    )
    assert all(type(t) is float for t in busy)
    assert all(type(t) is float for _w, t in inbox)
    assert all(type(c) is int for c in counters)
    if faulty:
        assert engine.faults is not None


def test_send_cost_is_the_three_single_formulas():
    """One call per cell returns what ``serialize_time``, ``num_batches``
    and ``transfer_time`` return one by one — on every link model in use."""
    links = [make_cluster("M2", 8).intra_node, make_cluster("C1", 16).inter_node,
             make_cluster("C1", 8).inter_node,
             CHARGING_CLUSTERS["ordered-pairs-5"]().link(2, 1)]
    for link in links:
        for count in (1, 2, 7, 31, 32, 33, 64, 65, 511, 512, 513, 100_000):
            assert link.send_cost(count) == (
                link.serialize_time(count),
                link.num_batches(count),
                link.transfer_time(count),
            )
            assert link.transfer(count) == oracle_transfer(link, count)
        assert link.transfer(0) == (0, 0.0)


@pytest.mark.parametrize("faulty", [False, True])
def test_link_cost_memo_is_send_cost_and_serves_repeated_counts(faulty):
    """Charging reads ``NetworkModel.send_cost`` through a per-link memo.
    On C1 at k = 16 (intra- and inter-node links in one row), with and
    without message drop and duplication, over the same passes twice: every
    memo entry is the three single formulas of its link, a (link, count) is
    computed the first time it is charged and served from the memo after,
    and the charges equal the per-destination oracle's."""
    plan = (
        FaultPlan(seed=11, message_drop=0.2, message_duplicate=0.1)
        if faulty else None
    )
    (engine, qr), (oracle, oracle_qr) = (
        _charging_engine(make_cluster("C1", 16), plan) for _side in range(2)
    )
    rng = np.random.default_rng(16)
    passes = [_draw_pass(rng, 16) for _pass in range(4)]
    computed = []
    send_cost = NetworkModel.send_cost

    def counted(link, count):
        computed.append((link, count))
        return send_cost(link, count)

    def memo_entries():
        return {
            (link, count)
            for links, row in zip(engine._links, engine._send_costs)
            for link, memo in zip(links, row)
            for count in memo
        }

    seen = set()
    for now, (run, results) in enumerate(passes + passes):
        del computed[:]
        with patch.object(NetworkModel, "send_cost", counted):
            _charge(engine, qr, run, results, now * 1e-3)
        oracle_charge(oracle, oracle_qr, run, results, now * 1e-3)
        charged = {
            (engine._links[src][dest], count)
            for src, result in zip(run, results)
            for dest, count in result.remote
        }
        if now >= len(passes):
            assert charged <= seen  # the second round repeats every count
        if not faulty:
            # one call per (link, count) charged for the first time (with
            # faults, retransmissions price their batches through send_cost
            # as well, outside the memo)
            assert Counter(computed) == Counter(charged - seen)
        seen |= charged
        assert memo_entries() == seen
    assert _charged_state(engine, qr) == _charged_state(oracle, oracle_qr)

    memos = {}
    for links, row in zip(engine._links, engine._send_costs):
        for link, memo in zip(links, row):
            assert memos.setdefault(link, memo) is memo  # one memo per model
            for count, cost in memo.items():
                assert cost == link.send_cost(count) == (
                    link.serialize_time(count),
                    link.num_batches(count),
                    link.transfer_time(count),
                )
    assert len(memos) == 2  # C1: the intra-node and the inter-node model


# ----------------------------------------------------------------------
# (iii) run formation
# ----------------------------------------------------------------------
class BlindQueue(LoggedQueue):
    """``peek()`` never shows the head, so no run gets a follower: the
    engine executes task by task, as it did before run coalescing."""

    def peek(self):
        return None

    def peek_time(self):
        event = EventQueue.peek(self)
        return None if event is None else event.time


class RecordingEngine(QGraphEngine):
    """Keeps the runs it executed; checks vertex-disjointness of each."""

    def __init__(self, *args, **kwargs):
        self.runs = []
        super().__init__(*args, **kwargs)

    def _execute_compute(self, qr, run, now):
        self.runs.append((now, qr.query.query_id, list(run)))
        if len(run) > 1:
            seen = np.concatenate([qr.mailboxes[w].concat()[0] for w in run])
            owners = np.concatenate(
                [np.full(len(qr.mailboxes[w]), w) for w in run]
            )
            order = np.argsort(seen, kind="stable")
            same = seen[order][1:] == seen[order][:-1]
            assert np.array_equal(owners[order][1:][same], owners[order][:-1][same])
        super()._execute_compute(qr, run, now)


def _engine(monkeypatch, queue_cls, graph, k=4, **config):
    monkeypatch.setattr("repro.engine.engine.EventQueue", queue_cls)
    assignment = np.arange(graph.num_vertices) % k
    config.setdefault("adaptive", False)
    return RecordingEngine(
        graph,
        make_cluster("M2", k),
        assignment,
        controller=Controller(k),
        config=EngineConfig(**config),
    )


def _started(monkeypatch, queue_cls=LoggedQueue, num_queries=1, **config):
    """An engine whose queries (one seed on each of the four workers) are
    admitted and whose dispatch events were taken out of the queue."""
    eng = _engine(monkeypatch, queue_cls, grid_graph(6, 6), **config)
    for qid in range(num_queries):
        eng.submit(Query(qid, SsspProgram(0), (0, 1, 2, 3)))
    for _ in range(num_queries):
        event = eng.queue.pop()
        eng._on_arrival(event.time, **event.payload)
    dispatched = eng.queue.drain()
    assert {e.kind for e in dispatched} == {"task_ready"}
    eng.queue.log.clear()
    return eng, dispatched[0].time


def _task(eng, when, query_id, worker):
    eng.queue.schedule(when, "task_ready", query_id=query_id, worker=worker)


class TestRunFormation:
    def test_a_barrier_release_is_one_run(self, monkeypatch):
        eng = _engine(monkeypatch, LoggedQueue, grid_graph(6, 6))
        eng.submit(Query(0, SsspProgram(0), (0, 1, 2, 3)))
        eng.run()
        assert eng.runs[0][2] == [0, 1, 2, 3]
        assert any(len(run) > 1 for _t, _q, run in eng.runs[1:])
        assert eng._events_processed == len(eng.queue.log)

    def test_cut_by_a_foreign_event_at_the_same_time(self, monkeypatch):
        eng, t = _started(monkeypatch)
        _task(eng, t, 0, 0)
        # a stale-epoch ack: a no-op handler, but it sits between the tasks
        eng.queue.schedule(t, "barrier_ack", query_id=0, worker=0, epoch=-1)
        _task(eng, t, 0, 1)
        _task(eng, t, 0, 2)
        eng.run(until=t)
        assert [run for _t, _q, run in eng.runs] == [[0], [1, 2]]

    def test_cut_by_a_later_timestamp(self, monkeypatch):
        eng, t = _started(monkeypatch)
        _task(eng, t, 0, 0)
        _task(eng, t + 1e-9, 0, 1)
        eng.run(until=t + 1e-9)
        assert [run for _t, _q, run in eng.runs] == [[0], [1]]

    def test_cut_by_another_querys_task(self, monkeypatch):
        eng, t = _started(monkeypatch, num_queries=2)
        _task(eng, t, 0, 0)
        _task(eng, t, 1, 0)
        _task(eng, t, 1, 1)
        _task(eng, t, 0, 1)
        eng.run(until=t)
        assert [(q, run) for _t, q, run in eng.runs] == [
            (0, [0]), (1, [0, 1]), (0, [1]),
        ]

    def test_cut_by_a_repeated_worker(self, monkeypatch):
        eng, t = _started(monkeypatch)
        _task(eng, t, 0, 0)
        _task(eng, t, 0, 1)
        _task(eng, t, 0, 0)  # duplicate dispatch: dropped by the plain path
        _task(eng, t, 0, 2)
        eng.run(until=t)
        assert [run for _t, _q, run in eng.runs] == [[0, 1], [2]]
        assert eng._events_processed == 4

    def test_cut_by_a_dead_worker(self, monkeypatch):
        eng, t = _started(monkeypatch)
        eng._dead_workers.add(1)
        _task(eng, t, 0, 0)
        _task(eng, t, 0, 1)
        _task(eng, t, 0, 2)
        eng.run(until=t)
        assert [run for _t, _q, run in eng.runs] == [[0], [2]]
        assert eng._tainted_queries == {0}  # the void dispatch's side effect

    def test_dead_head_starts_no_run(self, monkeypatch):
        eng, t = _started(monkeypatch)
        eng._dead_workers.add(0)
        _task(eng, t, 0, 0)
        _task(eng, t, 0, 1)
        eng.run(until=t)
        assert [run for _t, _q, run in eng.runs] == [[1]]

    def test_no_run_while_paused(self, monkeypatch):
        """A partial STOP: a disjoint query keeps iterating on live workers,
        task by task; a task on a halted worker is parked, not coalesced."""
        eng, t = _started(monkeypatch, repartition_mode="partial")
        eng.paused = True
        eng._stop_workers = {3}
        _task(eng, t, 0, 0)
        _task(eng, t, 0, 1)
        _task(eng, t, 0, 3)
        _task(eng, t, 0, 2)
        eng.run(until=t)
        assert [run for _t, _q, run in eng.runs] == [[0], [1], [2]]
        assert eng._held_other_tasks == [(0, 3)]

    @pytest.mark.parametrize("queue_cls", [LoggedQueue, BlindQueue])
    def test_cut_by_a_rehomed_mailbox_redirects_as_before(
        self, monkeypatch, queue_cls
    ):
        """Worker 1's mailbox moved to worker 3 between dispatch and
        execution: the run ends before it, and its redirect is scheduled
        behind the members' ``compute_done`` events — the sequence numbers
        per-task execution (``BlindQueue``) gives."""
        eng, t = _started(monkeypatch, queue_cls)
        qr = eng.runtimes[0]
        eng.assignment[eng.assignment == 1] = 3
        qr.rebucket(eng.assignment)
        assert sorted(qr.mailboxes) == [0, 2, 3]
        seq, epoch = eng.queue._seq, qr.barrier_epoch
        for w in (0, 1, 2, 3):
            _task(eng, t, 0, w)
        eng.run(until=t)
        assert [run for _t, _q, run in eng.runs] == (
            [[0], [2, 3]] if queue_cls is LoggedQueue else [[0], [2], [3]]
        )
        queued = sorted((e.seq - seq, e.kind, e.payload["worker"])
                        for e in eng.queue.drain())
        assert queued == [
            (4, "compute_done", 0),
            # the redirect: worker 3 is in flight (its own task is queued),
            # nothing to re-task; the in-flight ack set stays
            (5, "compute_done", 2),
            (6, "compute_done", 3),
        ]
        assert 1 not in qr.involved and qr.barrier_epoch == epoch + 1


# ----------------------------------------------------------------------
# coalesced == per-task, event for event, on full workloads
# ----------------------------------------------------------------------
def _workload_engine(monkeypatch, queue_cls, rn, kind, sync_mode, faults,
                     max_events=50_000_000, cluster=("M2", 4)):
    monkeypatch.setattr("repro.engine.engine.EventQueue", queue_cls)
    k = cluster[1]
    graph = MutableDiGraph.from_digraph(rn.graph)
    controller = Controller(
        k,
        controller_config(),
    )
    engine = RecordingEngine(
        graph,
        make_cluster(*cluster),
        HashPartitioner(seed=0).partition(graph, k),
        controller=controller,
        config=EngineConfig(
            adaptive=True, repartition_mode="partial", sync_mode=sync_mode,
            checkpoint_interval=2, max_events=max_events,
        ),
        faults=faults,
    )
    workload = WorkloadGenerator(rn, seed=5).generate(
        [PhaseSpec(num_queries=40, kind=kind, label="runs",
                   mix=tuple((name, 1.0) for name in sorted(QUERY_KINDS)),
                   churn_rate=400.0, churn_span=0.02)]
    )
    workload.submit_all(engine)
    return engine, workload


def _observed(engine, workload):
    trace = engine.trace
    return (
        engine.queue.log,
        engine._events_processed,
        {q: (r.start_time, r.end_time, r.iterations, r.local_iterations)
         for q, r in trace.queries.items()},
        (trace.local_messages, trace.remote_messages, trace.remote_batches,
         trace.barrier_acks, trace.barrier_releases, trace.checkpoints_taken),
        [(r.time, r.moved_vertices) for r in trace.repartitions],
        repr({q.query_id: engine.query_result(q.query_id)
              for q in workload.queries() if engine.runtimes[q.query_id].finished}),
    )


@pytest.mark.parametrize(
    "cluster, sync_mode",
    [
        (("M2", 4), SyncMode.HYBRID),
        (("M2", 4), SyncMode.GLOBAL_PER_QUERY),
        # two workers per node: intra- and inter-node links in one sent row,
        # two controller latencies, so a release splits into several runs
        (("C1", 16), SyncMode.HYBRID),
    ],
    ids=lambda value: value.name if isinstance(value, SyncMode) else "-".join(map(str, value)),
)
@pytest.mark.parametrize("kind", ["sssp", "mixed"])
def test_coalesced_run_is_event_for_event_the_per_task_run(
    monkeypatch, kind, sync_mode, cluster
):
    """Adaptive partial repartitioning, churn, checkpoints, a crash with
    recovery, message and control loss — every popped event (time, sequence
    number, kind, payload), every counter and every answer is the same
    with and without run coalescing."""
    rn = road_network()
    plan = FaultPlan(
        seed=3,
        crashes=(WorkerCrash(time=0.012, worker=1, downtime=0.01),),
        message_drop=0.02,
        control_loss=0.02,
        report_loss=0.02,
    )
    sides = []
    for queue_cls in (LoggedQueue, BlindQueue):
        engine, workload = _workload_engine(
            monkeypatch, queue_cls, rn, kind, sync_mode, plan, cluster=cluster
        )
        engine.run()
        sides.append((engine, _observed(engine, workload)))
    (coalesced, got), (per_task, want) = sides
    assert got == want
    assert all(len(run) == 1 for _t, _q, run in per_task.runs)
    lengths = [len(run) for _t, _q, run in coalesced.runs]
    assert lengths.count(1) > 0
    if cluster == ("M2", 4):
        assert max(lengths) == 4
    else:
        # workers 0 and 8 share the controller's node, the other fourteen
        # hear a release one inter-node latency later, together
        assert max(lengths) > 8
    assert sum(lengths) == len(per_task.runs)
    assert coalesced.trace.repartitions and coalesced.trace.recoveries


class TestEventBudgetAndHorizon:
    def test_budget_trips_on_the_same_event(self, monkeypatch):
        """Budgets that run out on the head of a run, on its second member
        and on its last: both engines stop on the same event, in the same
        state, with the same diagnostics."""
        rn = road_network()
        whole, _workload = _workload_engine(
            monkeypatch, LoggedQueue, rn, "sssp", SyncMode.HYBRID, None
        )
        whole.run()
        log = whole.queue.log
        #: event numbers (1-based) of the heads of a few four-worker runs
        heads = [
            i + 1
            for i in range(len(log) - 3)
            if all(
                (e[0], e[2], e[3][:1]) == (log[i][0], "task_ready", log[i][3][:1])
                for e in log[i : i + 4]
            )
            and log[i - 1][2] != "task_ready"
        ][5:40:7]
        assert len(heads) == 5
        for budget in [h + d for h in heads for d in (-1, 0, 1, 3)]:
            outcomes = []
            for queue_cls in (LoggedQueue, BlindQueue):
                engine, _workload = _workload_engine(
                    monkeypatch, queue_cls, rn, "sssp", SyncMode.HYBRID, None,
                    max_events=budget,
                )
                with pytest.raises(EngineError, match="event budget") as err:
                    engine.run()
                outcomes.append(
                    (str(err.value), engine.queue.log, engine._events_processed,
                     len(engine.queue),
                     [w for _t, _q, run in engine.runs for w in run])
                )
            assert outcomes[0] == outcomes[1], budget
            assert outcomes[0][2] == budget + 1

    def test_run_until_then_run_equals_one_run(self, monkeypatch):
        rn = road_network()
        whole, workload = _workload_engine(
            monkeypatch, LoggedQueue, rn, "sssp", SyncMode.HYBRID, None
        )
        whole.run()
        want = _observed(whole, workload)
        multi = [(t, run) for t, _q, run in whole.runs if len(run) > 1]
        # horizons: exactly on a run's timestamp, just before it, mid-way
        for horizon in (multi[3][0], np.nextafter(multi[5][0], 0.0),
                        whole.now / 2):
            split, workload = _workload_engine(
                monkeypatch, LoggedQueue, rn, "sssp", SyncMode.HYBRID, None
            )
            split.run(until=horizon)
            assert split.now <= horizon
            assert all(e[0] <= horizon for e in split.queue.log)
            assert split.queue.peek_time() > horizon
            split.run()
            assert _observed(split, workload) == want
            assert split.runs == whole.runs
