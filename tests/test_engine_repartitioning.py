"""Repartitioning during active queries: STOP/START state, rebucket, results.

Regression coverage for the barrier/runtime state bugs fixed alongside the
kernel layer:

* ``submit()`` must reject duplicate ids of queued-but-unstarted queries;
* ``_on_global_start`` stage B must drop stale pre-STOP acks instead of
  carrying them into the resumed iteration;
* barrier acks from an older epoch (in flight across a STOP/START) must be
  discarded;
* ``rebucket()`` must re-home both mailbox generations in both
  representations (dict and array);
* adaptive repartitioning must never change query answers.
"""

import numpy as np
import pytest

from reference_impls import generic_path
from repro.core import Controller, ControllerConfig
from repro.engine import (
    EngineConfig,
    QGraphEngine,
    Query,
    QueryRuntime,
    SimWorker,
    SyncMode,
)
from repro.errors import EngineError
from repro.graph import generate_road_network, grid_graph
from repro.partitioning import HashPartitioner
from repro.queries import BfsProgram, SsspProgram
from repro.simulation.cluster import make_cluster
from repro.workload import PhaseSpec, WorkloadGenerator


def build_engine(graph, k=2, adaptive=False, **cfg):
    assignment = HashPartitioner(seed=0).partition(graph, k)
    return QGraphEngine(
        graph,
        make_cluster("M2", k),
        assignment,
        controller=Controller(k),
        config=EngineConfig(adaptive=adaptive, **cfg),
    )


class TestDuplicateSubmit:
    def test_queued_duplicate_rejected(self):
        """Two submits with the same id must fail before either starts."""
        g = grid_graph(4, 4)
        eng = build_engine(g)
        eng.submit(Query(7, SsspProgram(0), (0,)))
        with pytest.raises(EngineError, match="duplicate query id 7"):
            eng.submit(Query(7, SsspProgram(1), (1,)))

    def test_duplicate_rejected_even_when_admission_queued(self):
        """Ids waiting in the admission queue are also protected."""
        g = grid_graph(4, 4)
        eng = build_engine(g, max_parallel_queries=1)
        for qid in range(3):
            eng.submit(Query(qid, BfsProgram(qid), (qid,)))
        with pytest.raises(EngineError):
            eng.submit(Query(2, BfsProgram(5), (5,)))


class TestGlobalStartStageB:
    def _paused_engine_with_held_task(self):
        """A query mid-iteration: one worker computed+acked, one task held."""
        g = grid_graph(4, 4)
        eng = build_engine(g, k=2)
        seed_a = int(np.flatnonzero(eng.assignment == 0)[0])
        seed_b = int(np.flatnonzero(eng.assignment == 1)[0])
        query = Query(0, SsspProgram(seed_a), (seed_a, seed_b))
        eng.submit(query)
        # process only the arrival so seed mailboxes exist on both workers
        event = eng.queue.pop()
        assert event.kind == "arrival"
        eng._on_arrival(event.time, **event.payload)
        qr = eng.runtimes[0]
        assert len(qr.mailboxes) == 2
        w_done, w_held = sorted(qr.mailboxes)
        # simulate: w_done already computed its mailbox and acked, then a
        # global STOP paused the engine while w_held's task was in flight
        SimWorker.execute_iteration(
            eng.workers, [w_done], qr, eng.graph, eng.assignment
        )
        qr.acked = {w_done}
        eng.paused = True
        eng._held_tasks.append((0, w_held))
        return eng, qr, w_done, w_held

    def test_stale_acks_dropped_on_start(self):
        eng, qr, w_done, w_held = self._paused_engine_with_held_task()
        epoch_before = qr.barrier_epoch
        eng._on_global_start(1.0)
        # the resumed iteration involves exactly the remaining mailbox owner;
        # the pre-STOP ack must not survive into the new barrier generation
        assert qr.acked == set()
        assert qr.involved == {w_held}
        assert qr.barrier_epoch == epoch_before + 1
        # the pre-STOP participant still counts toward iteration statistics
        assert qr.prior_participants == {w_done}

    def test_query_completes_correctly_after_resume(self):
        eng, qr, _w_done, _w_held = self._paused_engine_with_held_task()
        eng._on_global_start(1.0)
        eng.run()
        assert qr.finished
        # both seeds at distance 0; the wave still settles the whole grid
        result = eng.query_result(0)
        assert 0.0 in result["distances"].values()
        assert result["settled"] == 16
        # iteration accounting matches an uninterrupted run: the resumed
        # iteration is still recorded as a 2-worker (non-local) iteration
        g = grid_graph(4, 4)
        base = build_engine(g, k=2)
        seed_a = int(np.flatnonzero(base.assignment == 0)[0])
        seed_b = int(np.flatnonzero(base.assignment == 1)[0])
        base.submit(Query(0, SsspProgram(seed_a), (seed_a, seed_b)))
        base.run()
        interrupted = eng.trace.queries[0]
        baseline = base.trace.queries[0]
        assert interrupted.iterations == baseline.iterations
        assert interrupted.local_iterations == baseline.local_iterations

    def test_stale_dispatch_redirects_to_acked_owner(self):
        """A rebucket may merge a pending mailbox onto a worker that already
        computed and acked; the stale dispatch must re-task that owner (and
        un-ack it) instead of letting the barrier resolve and drop the
        merged messages."""
        g = grid_graph(4, 4)
        eng = build_engine(g, k=2)
        seed_a = int(np.flatnonzero(eng.assignment == 0)[0])
        seed_b = int(np.flatnonzero(eng.assignment == 1)[0])
        eng.submit(Query(0, SsspProgram(seed_a), (seed_a, seed_b)))
        event = eng.queue.pop()
        eng._on_arrival(event.time, **event.payload)
        qr = eng.runtimes[0]
        w_a, w_b = sorted(qr.mailboxes)
        # drive the scenario by hand: drop the queued dispatches ...
        while eng.queue.pop() is not None:
            pass
        # ... w_a computes its seed box and acks ...
        SimWorker.execute_iteration(eng.workers, [w_a], qr, eng.graph, eng.assignment)
        qr.acked = {w_a}
        assert w_a not in qr.mailboxes and w_b in qr.mailboxes
        # ... then a repartition moves every vertex to worker 0, re-homing
        # w_b's unconsumed current-iteration box onto w_a
        eng.assignment[:] = 0
        qr.rebucket(eng.assignment)
        assert set(qr.mailboxes) == {w_a}
        # now w_b's delayed task_ready fires post-START: it must redirect
        eng._on_task_ready(eng.now, 0, w_b)
        assert w_b not in qr.involved
        assert w_a in qr.involved and w_a not in qr.acked
        eng.run()
        assert qr.finished
        distances = eng.query_result(0)["distances"]
        assert distances[seed_a] == 0.0
        assert distances[seed_b] == 0.0  # merged mailbox was not dropped
        assert len(distances) == 16

    def test_stale_epoch_ack_discarded(self):
        g = grid_graph(4, 4)
        eng = build_engine(g, k=2)
        eng.submit(Query(0, SsspProgram(0), (0, 1)))
        event = eng.queue.pop()
        eng._on_arrival(event.time, **event.payload)
        qr = eng.runtimes[0]
        qr.barrier_epoch = 3
        eng._on_barrier_ack(0.0, 0, worker=0, epoch=2)
        assert qr.acked == set()
        eng._on_barrier_ack(0.0, 0, worker=0, epoch=3)
        assert qr.acked == {0}


class TestRebucket:
    def test_rebucket_dict_both_generations(self):
        q = Query(0, SsspProgram(0, 1), (0,))
        qr = QueryRuntime(q)
        qr.deliver(0, 5, 1.0, to_next=False)
        qr.deliver(0, 6, 2.0, to_next=True)
        assignment = np.zeros(10, dtype=np.int64)
        assignment[5] = 3
        assignment[6] = 2
        qr.rebucket(assignment)
        assert qr.mailboxes == {3: {5: 1.0}}
        assert qr.next_mailboxes == {2: {6: 2.0}}

    def test_rebucket_array_both_generations(self):
        g = grid_graph(4, 4)
        q = Query(0, SsspProgram(0), (0,))
        qr = QueryRuntime(q, g)
        assert qr.kernel is not None
        qr.deliver_array(
            0, np.array([5, 6], dtype=np.int64), np.array([1.0, 2.0]), to_next=False
        )
        qr.deliver_array(
            1, np.array([7], dtype=np.int64), np.array([3.0]), to_next=True
        )
        assignment = np.zeros(16, dtype=np.int64)
        assignment[6] = 2
        assignment[7] = 2
        qr.rebucket(assignment)
        cur_v, cur_m = qr.mailboxes[0].concat()
        assert cur_v.tolist() == [5] and cur_m.tolist() == [1.0]
        moved_v, moved_m = qr.mailboxes[2].concat()
        assert moved_v.tolist() == [6] and moved_m.tolist() == [2.0]
        nxt_v, nxt_m = qr.next_mailboxes[2].concat()
        assert nxt_v.tolist() == [7] and nxt_m.tolist() == [3.0]

    def test_rebucket_merges_boxes_for_same_worker(self):
        g = grid_graph(4, 4)
        q = Query(0, SsspProgram(0), (0,))
        qr = QueryRuntime(q, g)
        qr.deliver_array(0, np.array([1], dtype=np.int64), np.array([1.0]))
        qr.deliver_array(1, np.array([2], dtype=np.int64), np.array([2.0]))
        qr.rebucket(np.zeros(16, dtype=np.int64))  # everything moves to worker 0
        qr.rotate_mailboxes()
        assert sorted(qr.mailboxes) == [0]
        v, m = qr.mailboxes[0].concat()
        assert sorted(v.tolist()) == [1, 2]


def _adaptive_workload_run(adaptive: bool, sync_mode: SyncMode = SyncMode.HYBRID):
    rn = generate_road_network(
        num_cities=4,
        num_urban_vertices=1200,
        seed=13,
        region_size=60.0,
        zipf_exponent=0.5,
    )
    k = 4
    assignment = HashPartitioner(seed=0).partition(rn.graph, k)
    controller = Controller(
        k,
        ControllerConfig(
            mu=5.0,
            max_tracked_queries=32,
            qcut_compute_time=0.001,
            qcut_cooldown=0.005,
            min_queries_for_qcut=4,
            ils_rounds=30,
        ),
    )
    engine = QGraphEngine(
        rn.graph,
        make_cluster("M2", k),
        assignment,
        controller=controller,
        config=EngineConfig(adaptive=adaptive, sync_mode=sync_mode),
    )
    workload = WorkloadGenerator(rn, seed=5).generate(
        [PhaseSpec(num_queries=48, kind="sssp", label="repart")]
    )
    workload.submit_all(engine)
    trace = engine.run()
    query_ids = [q.query_id for q in workload.queries()]
    results = {qid: engine.query_result(qid) for qid in query_ids}
    return engine, trace, results


class TestAdaptiveEquivalence:
    def test_repartitioning_preserves_results(self):
        """adaptive=True (with real STOP/START repartitions mid-flight) must
        produce exactly the same answers as adaptive=False."""
        eng_a, trace_a, res_a = _adaptive_workload_run(adaptive=True)
        _eng_s, _trace_s, res_s = _adaptive_workload_run(adaptive=False)
        assert len(trace_a.repartitions) >= 1, "workload never triggered Q-cut"
        assert len(trace_a.finished_queries()) == 48
        assert res_a == res_s

    def test_repartitioning_preserves_results_generic_path(self):
        with generic_path():
            eng_a, trace_a, res_a = _adaptive_workload_run(adaptive=True)
            _eng_s, _trace_s, res_s = _adaptive_workload_run(adaptive=False)
        assert len(trace_a.repartitions) >= 1
        assert res_a == res_s

    def test_kernel_and_generic_agree_under_adaptation(self):
        _ek, _tk, res_k = _adaptive_workload_run(adaptive=True)
        with generic_path():
            _eg, _tg, res_g = _adaptive_workload_run(adaptive=True)
        assert res_k == res_g

    def test_global_per_query_adaptive_completes(self):
        """All-worker barriers + mid-flight repartitioning: every query must
        still finish (no barrier deadlock from demoted/stale ackers) with
        the same answers as the static run."""
        _ea, trace_a, res_a = _adaptive_workload_run(
            adaptive=True, sync_mode=SyncMode.GLOBAL_PER_QUERY
        )
        _es, _ts, res_s = _adaptive_workload_run(
            adaptive=False, sync_mode=SyncMode.GLOBAL_PER_QUERY
        )
        assert len(trace_a.finished_queries()) == 48
        assert res_a == res_s
