"""Partial STOP/START repartitioning: scoping, invariants, equivalence.

Covers the plan-scoped barrier pipeline (``EngineConfig.repartition_mode ==
"partial"``) and the repartition-path bugfixes that shipped with it:

* no query iterates on a halted worker during a partial STOP, while queries
  disjoint from the plan keep making progress;
* barrier epochs bump exactly once per interrupted query across START;
* partial mode with an all-workers plan reproduces global mode
  event-for-event (same query records, repartition records, counters, and
  event count);
* ``QueryRuntime.rebucket`` keeps every message of colliding vertices, so
  the consumer combines them instead of one overwriting the other, and
  conserves mailbox mass;
* migration cost groups payloads per directed link (two moves sharing a
  link serialize instead of being charged as concurrent transfers);
* ``RepartitionRecord.stall_duration`` measures the actual STOP-begin →
  START stall, excluding the overlapped async Q-cut planning time.
"""

import hashlib

import numpy as np
import pytest

from admission_policies import POLICIES, scheduler_for
from engine_harness import ScriptedController
from reference_impls import generic_path
from repro.core import Controller, ControllerConfig
from repro.core.api import MoveRequest
from repro.core.controller import MovePlan
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
from repro.graph.builder import GraphBuilder
from repro.partitioning import HashPartitioner
from repro.queries import SsspProgram
from repro.simulation.cluster import make_cluster
from repro.simulation.faults import FaultPlan, WorkerCrash
from repro.workload import PhaseSpec, WorkloadGenerator

QCUT_COMPUTE_TIME = 0.001


def _controller_config(**overrides) -> ControllerConfig:
    base = dict(
        mu=5.0,
        max_tracked_queries=32,
        qcut_compute_time=QCUT_COMPUTE_TIME,
        qcut_cooldown=0.005,
        min_queries_for_qcut=4,
        ils_rounds=30,
    )
    base.update(overrides)
    return ControllerConfig(**base)


class AllWorkersController(Controller):
    """Annotates every plan as involving the whole cluster (equivalence)."""

    def complete_qcut(self, now):
        plan = super().complete_qcut(now)
        if plan:
            plan.involved_workers = frozenset(range(self.k))
        return plan


class InvariantEngine(QGraphEngine):
    """Engine that audits the partial-STOP execution invariants."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.violations = []
        #: computes executed while a partial STOP was in progress (the
        #: disjoint queries that kept iterating)
        self.paused_progress = 0
        #: (query_id, epoch_before, epoch_after) per interrupted query
        self.epoch_checks = []
        #: (halted workers, halted queries) per partial STOP
        self.captured_scopes = []
        #: (query_id, worker) tasks parked on halted workers (stage C)
        self.parked = []

    def _plan_scope(self, plan):
        workers, queries = super()._plan_scope(plan)
        self.captured_scopes.append((set(workers), set(queries)))
        return workers, queries

    def _on_global_start(self, now):
        self.parked.extend(self._held_other_tasks)
        resolved = set(dict.fromkeys(self._held_resolutions))
        interrupted = {
            qid for qid, _w in self._held_tasks if qid not in resolved
        }
        before = {
            qid: self.runtimes[qid].barrier_epoch
            for qid in interrupted | resolved
            if not self.runtimes[qid].finished
        }
        super()._on_global_start(now)
        for qid, epoch in sorted(before.items()):
            if self.runtimes[qid].finished:
                continue  # resolved to completion at START: no new barrier
            self.epoch_checks.append(
                (qid, epoch, self.runtimes[qid].barrier_epoch)
            )

    def _execute_compute(self, qr, run, now):
        for worker in run if self.paused else ():
            if worker in self._stop_workers:
                self.violations.append(
                    ("compute-on-halted-worker", qr.query.query_id, worker)
                )
            elif qr.query.query_id in self._stop_queries:
                self.violations.append(
                    ("halted-query-computed", qr.query.query_id, worker)
                )
            else:
                self.paused_progress += 1
        return super()._execute_compute(qr, run, now)

def _run_workload(
    adaptive=True,
    repartition_mode="partial",
    sync_mode=SyncMode.HYBRID,
    scheduler="fifo",
    k=4,
    engine_cls=QGraphEngine,
    controller_cls=Controller,
    max_parallel=16,
    checkpoint_interval=0,
    faults=None,
):
    rn = generate_road_network(
        num_cities=4,
        num_urban_vertices=1200,
        seed=13,
        region_size=60.0,
        zipf_exponent=0.5,
    )
    assignment = HashPartitioner(seed=0).partition(rn.graph, k)
    controller = controller_cls(k, _controller_config())
    engine = engine_cls(
        rn.graph,
        make_cluster("M2", k),
        assignment,
        controller=controller,
        config=EngineConfig(
            adaptive=adaptive,
            sync_mode=sync_mode,
            repartition_mode=repartition_mode,
            scheduler=scheduler,
            max_parallel_queries=max_parallel,
            checkpoint_interval=checkpoint_interval,
        ),
        faults=faults,
    )
    workload = WorkloadGenerator(rn, seed=5).generate(
        [PhaseSpec(num_queries=48, kind="sssp", label="repart")]
    )
    workload.submit_all(engine)
    trace = engine.run()
    results = {
        q.query_id: engine.query_result(q.query_id) for q in workload.queries()
    }
    return engine, trace, results


def _trace_fingerprint(engine, trace):
    """Everything observable about a run, for event-for-event comparison."""
    return (
        {
            qid: (r.start_time, r.end_time, r.iterations, r.local_iterations)
            for qid, r in trace.queries.items()
        },
        [
            (
                r.time,
                r.moved_vertices,
                r.num_moves,
                r.barrier_duration,
                r.stall_duration,
                r.involved_workers,
            )
            for r in trace.repartitions
        ],
        trace.local_messages,
        trace.remote_messages,
        trace.remote_batches,
        trace.barrier_acks,
        trace.barrier_releases,
        engine._events_processed,
    )


#: digests of ``_trace_fingerprint`` recorded at the commit before
#: per-query state moved onto ``QueryRuntime`` (PR 15): that move, and any
#: later host-side-only change, must reproduce these runs event for event.
#: A change that re-times events on purpose re-pins them.
_PINNED_FINGERPRINTS = {
    # re-pinned when the controller began holding snapshots whose fragments
    # list more vertices than the graph has: this workload holds one and
    # applies 3 plans instead of 4 in every sync mode.  Both re-pinned again
    # when a query held at a STOP stopped closing its iteration a second
    # time at START: 282 closes, not 310 / 316; the same plans and makespans
    ("workload", SyncMode.HYBRID): "87d80b9f0b2ba5de",
    ("workload", SyncMode.GLOBAL_PER_QUERY): "d15ab134c4e75f85",
    # re-pinned when plans from snapshots taken with fewer than
    # max_parallel_queries queries waiting stopped trading cost for balance:
    # the third snapshot (t = 14.9 ms) is such a one, and its ILS now stops
    # at the first zero-cost state (imbalance 0.41, 514 vertices moved)
    # instead of walking on to a better-balanced one (0.36, 503); still 3
    # repartitions.  The other two sync modes plan the same states either way.
    # Re-pinned again when the 16 queries started at t = 0 began to share
    # the first superstep (it ran query 0 alone): 28 supersteps, not 30,
    # makespan 25.8 -> 25.0 ms, still 3 repartitions
    ("workload", SyncMode.SHARED_BSP): "56d9551bddecd39c",
    # re-pinned when a query held at a STOP stopped closing its iteration a
    # second time at START: 402 closes, not 403, and 802, not 803
    ("path", False): "a2fbbc5a4d4e2d4f",
    ("path", True): "eb9bbb0f46d0c97e",
}


def _digest(engine, trace):
    fingerprint = _trace_fingerprint(engine, trace)
    return hashlib.sha256(repr(fingerprint).encode()).hexdigest()[:16]


class TestPinnedFingerprints:
    @pytest.mark.parametrize("repartition_mode", ["global", "partial"])
    @pytest.mark.parametrize(
        "sync_mode",
        [SyncMode.HYBRID, SyncMode.GLOBAL_PER_QUERY, SyncMode.SHARED_BSP],
    )
    def test_adaptive_workload(self, sync_mode, repartition_mode):
        # every plan of this 4-worker run involves all workers, so partial
        # mode reproduces global mode and both share one pin
        engine, trace, _res = _run_workload(
            adaptive=True, repartition_mode=repartition_mode, sync_mode=sync_mode
        )
        assert len(trace.repartitions) == 3
        assert _digest(engine, trace) == _PINNED_FINGERPRINTS["workload", sync_mode]

    @pytest.mark.parametrize(
        "connected, vertex_state_bytes", [(False, 50_000), (True, 600_000)]
    )
    def test_scoped_partial_stop(self, connected, vertex_state_bytes):
        """A STOP that halts two of four workers (and, when connected,
        parks the live query's task on a halted worker — stage C)."""
        engine, trace, _res = _path_engine(
            adaptive=True,
            connected=connected,
            vertex_state_bytes=vertex_state_bytes,
        )
        assert len(engine.parked) == int(connected)
        assert _digest(engine, trace) == _PINNED_FINGERPRINTS["path", connected]


class TestPartialModeBasics:
    def test_unknown_mode_rejected(self):
        g = grid_graph(4, 4)
        assignment = HashPartitioner(seed=0).partition(g, 2)
        with pytest.raises(EngineError, match="repartition mode"):
            QGraphEngine(
                g,
                make_cluster("M2", 2),
                assignment,
                controller=Controller(2),
                config=EngineConfig(repartition_mode="sideways"),
            )

    def test_partial_mode_preserves_results(self):
        _e, trace, res = _run_workload(adaptive=True, repartition_mode="partial")
        _es, _ts, res_static = _run_workload(adaptive=False)
        assert len(trace.repartitions) >= 1, "workload never triggered Q-cut"
        assert len(trace.finished_queries()) == 48
        assert res == res_static

    def test_partial_mode_preserves_results_generic_path(self):
        with generic_path():
            _e, trace, res = _run_workload(adaptive=True, repartition_mode="partial")
            _es, _ts, res_static = _run_workload(adaptive=False)
        assert len(trace.repartitions) >= 1
        assert res == res_static

    def test_partial_mode_global_per_query_completes(self):
        _e, trace, res = _run_workload(
            adaptive=True,
            repartition_mode="partial",
            sync_mode=SyncMode.GLOBAL_PER_QUERY,
        )
        _es, _ts, res_static = _run_workload(
            adaptive=False, sync_mode=SyncMode.GLOBAL_PER_QUERY
        )
        assert len(trace.finished_queries()) == 48
        assert res == res_static

    def test_partial_degrades_to_global_under_shared_bsp(self):
        engine, trace, res = _run_workload(
            adaptive=True,
            repartition_mode="partial",
            sync_mode=SyncMode.SHARED_BSP,
        )
        _es, _ts, res_static = _run_workload(
            adaptive=False, sync_mode=SyncMode.SHARED_BSP
        )
        assert res == res_static
        # the shared superstep barrier has no plan scope: every STOP is global
        for rec in trace.repartitions:
            assert rec.involved_workers == tuple(range(engine.cluster.num_workers))

    def test_partial_records_scoped_involved_workers(self):
        engine, trace, _res = _run_workload(adaptive=True, repartition_mode="partial")
        assert len(trace.repartitions) >= 1
        k = engine.cluster.num_workers
        for rec in trace.repartitions:
            assert 0 < len(rec.involved_workers) <= k
            assert all(0 <= w < k for w in rec.involved_workers)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_scheduler_policies_under_partial_plans(self, policy):
        """on_assignment_changed rebuckets pending queries after partial
        STOP/STARTs too: every policy drains the workload with unchanged
        answers under a tight admission cap."""
        _e, trace, res = _run_workload(
            adaptive=True,
            repartition_mode="partial",
            scheduler=scheduler_for(policy),
            max_parallel=6,
        )
        _es, _ts, res_static = _run_workload(
            adaptive=False, scheduler=scheduler_for(policy), max_parallel=6
        )
        assert len(trace.finished_queries()) == 48
        assert res == res_static


def _path_engine(
    adaptive,
    connected,
    repartition_mode="partial",
    vertex_state_bytes=50_000,
    engine_cls=InvariantEngine,
):
    """Path graph 0..399 over k=4 workers in contiguous 100-vertex blocks.

    ``connected=False`` severs the edge between vertices 199 and 200, so
    query 0 (SSSP from 0, workers {0, 1}) and query 1 (SSSP from 399,
    workers {2, 3}) are fully disjoint; ``connected=True`` lets query 1's
    wavefront eventually cross into the halted workers' range.  The
    scripted plan moves vertices 0..49 from worker 0 to worker 1, and the
    inflated ``vertex_state_bytes`` stretches the migration stall so the
    live query demonstrably iterates through it.
    """
    n = 400
    builder = GraphBuilder(n)
    for i in range(n - 1):
        if not connected and i == 199:
            continue
        builder.add_bidirectional_edge(i, i + 1, 1.0)
    graph = builder.build()
    assignment = np.repeat(np.arange(4, dtype=np.int64), 100)
    controller = ScriptedController(4, np.arange(50, dtype=np.int64))
    engine = engine_cls(
        graph,
        make_cluster("M2", 4),
        assignment.copy(),
        controller=controller,
        config=EngineConfig(
            adaptive=adaptive,
            repartition_mode=repartition_mode,
            vertex_state_bytes=vertex_state_bytes,
        ),
    )
    engine.submit(Query(0, SsspProgram(0), (0,)))
    engine.submit(Query(1, SsspProgram(399), (399,)))
    trace = engine.run()
    results = {qid: engine.query_result(qid) for qid in (0, 1)}
    return engine, trace, results


class TestPartialInvariants:
    def test_disjoint_query_iterates_through_partial_stop(self):
        engine, trace, results = _path_engine(adaptive=True, connected=False)
        assert len(trace.repartitions) == 1
        workers, queries = engine.captured_scopes[0]
        assert workers == {0, 1}
        assert queries == {0}  # the co-located query; query 1 is disjoint
        assert engine.violations == []
        # the point of partial mode: the disjoint query kept iterating
        # while workers 0/1 were stopped and migrating
        assert engine.paused_progress > 0
        assert trace.repartitions[0].involved_workers == (0, 1)
        _e, _t, static = _path_engine(adaptive=False, connected=False)
        assert results == static

    def test_live_query_reaching_halted_worker_is_parked(self):
        # ~7.5 ms migration stall: long enough for query 1's wave (~25 µs
        # per hop) to cross from worker 2's range into halted worker 1's
        engine, trace, results = _path_engine(
            adaptive=True, connected=True, vertex_state_bytes=600_000
        )
        assert len(trace.repartitions) == 1
        workers, queries = engine.captured_scopes[0]
        assert queries == {0}
        # query 1's wavefront crossed into a halted worker mid-STOP: its
        # dispatch was parked (stage C), never executed on the halted
        # worker, and resumed at START with correct answers
        assert engine.parked, "wavefront never reached a halted worker"
        assert all(w in workers for _q, w in engine.parked)
        assert engine.violations == []
        assert engine.paused_progress > 0
        _e, _t, static = _path_engine(adaptive=False, connected=True)
        assert results == static

    def test_no_compute_on_halted_workers_under_load(self):
        engine, trace, _res = _run_workload(
            adaptive=True, repartition_mode="partial", engine_cls=InvariantEngine
        )
        assert len(trace.repartitions) >= 1
        assert engine.violations == []

    def test_epoch_bumps_exactly_once_per_interrupted_query(self):
        engine, trace, _res = _run_workload(
            adaptive=True, repartition_mode="partial", engine_cls=InvariantEngine
        )
        assert len(trace.repartitions) >= 1
        assert engine.epoch_checks, "no query was ever interrupted by a STOP"
        for qid, before, after in engine.epoch_checks:
            # +1 for the STOP's ack invalidation; an interrupted query whose
            # every compute had already run resolves immediately at START,
            # which advances one iteration on top (+1 more)
            assert after - before in (1, 2), (qid, before, after)
        assert any(after - before == 1 for _q, before, after in engine.epoch_checks)

    def test_global_mode_invariants_still_hold(self):
        engine, trace, _res = _run_workload(
            adaptive=True, repartition_mode="global", engine_cls=InvariantEngine
        )
        assert len(trace.repartitions) >= 1
        assert engine.violations == []
        assert engine.paused_progress == 0  # a global STOP halts everyone


class ScopeProbeEngine(QGraphEngine):
    """Records the STOP scope at every ``global_stop`` and once every
    ``global_start`` has released the pause."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: (recovery STOP?, halted workers, halted queries, running queries)
        self.stops = []
        #: (halted workers, halted queries) after START
        self.starts = []

    def _on_global_stop(self, now):
        self.stops.append(
            (
                self._recovery_active,
                set(self._stop_workers),
                set(self._stop_queries),
                set(self.running),
            )
        )
        super()._on_global_stop(now)

    def _on_global_start(self, now):
        super()._on_global_start(now)
        if not self.paused:  # START may arm a deferred recovery's STOP
            self.starts.append((set(self._stop_workers), set(self._stop_queries)))


class TestStopScope:
    """A global repartition and a crash recovery halt one scope: every
    worker and exactly the running queries, both empty once START ran."""

    @pytest.mark.parametrize("recovery", [False, True], ids=["repartition", "recovery"])
    def test_global_stop_halts_every_worker_and_the_running_queries(self, recovery):
        faults = None
        if recovery:
            _eng, clean, _res = _run_workload(
                adaptive=False, repartition_mode="global", checkpoint_interval=2
            )
            faults = FaultPlan(
                seed=0,
                crashes=(WorkerCrash(time=0.3 * clean.makespan(), worker=1),),
            )
        engine, trace, _res = _run_workload(
            adaptive=not recovery,
            repartition_mode="global",
            engine_cls=ScopeProbeEngine,
            checkpoint_interval=2 if recovery else 0,
            faults=faults,
        )
        if recovery:
            assert len(trace.recoveries) == 1 and not trace.repartitions
        else:
            assert len(trace.repartitions) >= 1 and not trace.recoveries
        assert [stop[0] for stop in engine.stops] == [recovery] * len(engine.stops)
        assert len(engine.stops) == len(trace.repartitions) + len(trace.recoveries)
        for _recovery, workers, queries, running in engine.stops:
            assert workers == set(range(4))
            assert queries == running and queries
        assert engine.starts == [(set(), set())] * len(engine.stops)


class TestAllWorkersEquivalence:
    @pytest.mark.parametrize("sync_mode", [SyncMode.HYBRID, SyncMode.GLOBAL_PER_QUERY])
    def test_partial_all_workers_plan_matches_global_event_for_event(self, sync_mode):
        eng_g, trace_g, res_g = _run_workload(
            adaptive=True, repartition_mode="global", sync_mode=sync_mode
        )
        eng_p, trace_p, res_p = _run_workload(
            adaptive=True,
            repartition_mode="partial",
            sync_mode=sync_mode,
            controller_cls=AllWorkersController,
        )
        assert len(trace_g.repartitions) >= 1
        assert res_g == res_p
        assert _trace_fingerprint(eng_g, trace_g) == _trace_fingerprint(
            eng_p, trace_p
        )

    def test_partial_all_workers_generic_path(self):
        with generic_path():
            eng_g, trace_g, _ = _run_workload(adaptive=True, repartition_mode="global")
            eng_p, trace_p, _ = _run_workload(
                adaptive=True,
                repartition_mode="partial",
                controller_cls=AllWorkersController,
            )
        assert _trace_fingerprint(eng_g, trace_g) == _trace_fingerprint(
            eng_p, trace_p
        )


def _combined(qr, box):
    """A mailbox as ``{vertex: combined message}``, as its consumer sees it."""
    vertices, messages = qr.kernel.combine_arrays(*box.concat())
    return dict(zip(vertices.tolist(), messages.tolist()))


class TestRebucketCollisions:
    def test_array_path_collision_combined_at_consume(self):
        g = grid_graph(4, 4)
        qr = QueryRuntime(Query(0, SsspProgram(0), (0,)), g)
        qr.deliver_array(0, np.array([5], dtype=np.int64), np.array([7.0]))
        qr.deliver_array(1, np.array([5], dtype=np.int64), np.array([3.0]))
        assignment = np.zeros(16, dtype=np.int64)
        assignment[5] = 2
        qr.rebucket(assignment)
        vertices, messages = qr.kernel.combine_arrays(
            *qr.next_mailboxes[2].concat()
        )
        assert vertices.tolist() == [5]
        assert messages.tolist() == [3.0]

    def test_array_mass_conserved(self):
        g = grid_graph(4, 4)
        qr = QueryRuntime(Query(0, SsspProgram(0), (0,)), g)
        rng = np.random.default_rng(3)
        total = 0
        for w in range(3):
            vertices = rng.integers(0, 16, size=5).astype(np.int64)
            qr.deliver_array(w, vertices, rng.random(5))
            total += 5
        assignment = rng.integers(0, 2, size=16).astype(np.int64)
        qr.rebucket(assignment)
        after = sum(
            box.concat()[0].size for box in qr.next_mailboxes.values()
        )
        assert after == total
        for w, box in qr.next_mailboxes.items():
            assert (assignment[box.concat()[0]] == w).all()

    def test_scoped_rebucket_keeps_out_of_scope_boxes(self):
        qr = QueryRuntime(Query(0, SsspProgram(0), (0,)), grid_graph(2, 2))
        qr.deliver_array(0, np.array([1]), np.array([5.0]), to_next=False)
        qr.deliver_array(1, np.array([2]), np.array([2.0]), to_next=False)
        assignment = np.array([0, 2, 2, 0], dtype=np.int64)
        # only worker 0's boxes are in scope: worker 1's stays put even
        # though the assignment disagrees (the caller guarantees no moved
        # vertex has messages outside the scanned workers)
        qr.rebucket(assignment, workers={0})
        assert sorted(qr.mailboxes) == [1, 2]
        assert _combined(qr, qr.mailboxes[1]) == {2: 2.0}
        assert _combined(qr, qr.mailboxes[2]) == {1: 5.0}

    def test_scoped_rebucket_merges_into_kept_box(self):
        qr = QueryRuntime(Query(0, SsspProgram(0), (0,)), grid_graph(2, 2))
        qr.deliver_array(0, np.array([1]), np.array([5.0]), to_next=False)
        qr.deliver_array(1, np.array([1]), np.array([2.0]), to_next=False)
        assignment = np.array([0, 1, 0, 0], dtype=np.int64)
        # vertex 1 re-homes from the scanned worker 0 onto worker 1, whose
        # own (kept) box already holds a message for it -> combined when
        # worker 1 consumes the box
        qr.rebucket(assignment, workers={0})
        assert sorted(qr.mailboxes) == [1]
        assert _combined(qr, qr.mailboxes[1]) == {1: 2.0}


class TestRedirectAckLiveness:
    def test_redirect_epoch_bump_reissues_inflight_acks(self):
        """A stale-dispatch redirect must not strand a worker whose
        barrierSynch was in flight when the epoch bumped.

        Worker 0 computed and its ack is still in flight when worker 1's
        stale task redirects to worker 2 (bumping the epoch).  The stale
        ack is dropped on arrival; without re-issuing one on worker 0's
        behalf the barrier would wait on it forever (it is never
        re-tasked: its mailbox was consumed, not re-homed)."""
        g = grid_graph(4, 4)
        k = 3
        assignment = HashPartitioner(seed=0).partition(g, k)
        eng = QGraphEngine(
            g,
            make_cluster("M2", k),
            assignment,
            controller=Controller(k),
            config=EngineConfig(adaptive=False),
        )
        seed_a = int(np.flatnonzero(eng.assignment == 0)[0])
        seed_b = int(np.flatnonzero(eng.assignment == 1)[0])
        eng.submit(Query(0, SsspProgram(seed_a), (seed_a, seed_b)))
        event = eng.queue.pop()
        eng._on_arrival(event.time, **event.payload)
        qr = eng.runtimes[0]
        assert sorted(qr.mailboxes) == [0, 1]
        # drop the queued dispatches; drive the race by hand
        while eng.queue.pop() is not None:
            pass
        # worker 0 computes its seed box; its ack is *in flight* (scheduled
        # but not arrived) with the current epoch
        SimWorker.execute_iteration(eng.workers, [0], qr, eng.graph, eng.assignment)
        qr.computed = {0}  # what _execute_compute records before dispatching
        eng.queue.schedule(
            eng.now + 1.0e-4,
            "barrier_ack",
            query_id=0,
            worker=0,
            epoch=qr.barrier_epoch,
        )
        # a repartition re-homes worker 1's unconsumed box onto worker 2
        moved = np.flatnonzero(eng.assignment == 1)
        eng.assignment[moved] = 2
        qr.rebucket(eng.assignment)
        assert sorted(qr.mailboxes) == [2]
        # worker 1's delayed dispatch fires before the ack arrives: the
        # redirect bumps the epoch, invalidating the in-flight ack
        eng._on_task_ready(eng.now, 0, 1)
        assert 2 in qr.involved and 1 not in qr.involved
        eng.run()
        assert qr.finished, "barrier stranded: dropped ack never replaced"
        distances = eng.query_result(0)["distances"]
        assert distances[seed_a] == 0.0
        assert distances[seed_b] == 0.0
        assert len(distances) == 16


class TestMigrationLinkContention:
    def _paused_engine(self, k=2):
        g = grid_graph(6, 6)
        assignment = np.zeros(g.num_vertices, dtype=np.int64)
        engine = QGraphEngine(
            g,
            make_cluster("C1", k),
            assignment,
            controller=Controller(k),
            config=EngineConfig(adaptive=False),
        )
        return engine

    def test_shared_link_serializes_payloads(self):
        engine = self._paused_engine()
        va = np.arange(0, 10, dtype=np.int64)
        vb = np.arange(10, 30, dtype=np.int64)
        plan = MovePlan(
            moves=[
                MoveRequest(src=0, dst=1, vertices=va),
                MoveRequest(src=0, dst=1, vertices=vb),
            ]
        )
        engine.paused = True
        engine._pending_plan = plan
        engine._stop_begin_time = engine.now
        engine._on_global_stop(0.0)
        event = engine.queue.pop()
        assert event.kind == "global_start"
        link = engine.cluster.link(0, 1)
        bytes_total = (va.size + vb.size) * engine.config.vertex_state_bytes
        expected = link.latency + bytes_total / link.bandwidth
        assert event.time == pytest.approx(expected, rel=1e-12)
        # strictly more than the old per-move max-concurrency accounting
        per_move_max = max(
            link.latency + va.size * engine.config.vertex_state_bytes / link.bandwidth,
            link.latency + vb.size * engine.config.vertex_state_bytes / link.bandwidth,
        )
        assert event.time > per_move_max

    def test_vertex_named_twice_migrates_once_to_the_first_destination(self):
        """Overlapping units can name one vertex in several moves: the first
        move in plan order takes it (a move migrates only the vertices still
        on its source), so it is charged and counted once."""
        engine = self._paused_engine(k=4)
        first = MoveRequest(src=0, dst=1, vertices=np.arange(0, 20, dtype=np.int64))
        second = MoveRequest(src=0, dst=2, vertices=np.arange(10, 30, dtype=np.int64))
        plan = MovePlan(moves=[first, second])
        engine.paused = True
        engine._pending_plan = plan
        engine._stop_begin_time = engine.now
        engine._on_global_stop(0.0)
        event = engine.queue.pop()
        assert engine.assignment[:20].tolist() == [1] * 20
        assert engine.assignment[20:30].tolist() == [2] * 10
        assert plan.moved_vertices == 40  # listed
        assert engine.trace.repartitions[0].moved_vertices == 30  # migrated
        times = []
        for dst, count in ((1, 20), (2, 10)):
            link = engine.cluster.link(0, dst)
            payload = count * engine.config.vertex_state_bytes
            times.append(link.latency + payload / link.bandwidth)
        assert event.time == pytest.approx(max(times), rel=1e-12)

    def test_disjoint_links_transfer_concurrently(self):
        engine = self._paused_engine(k=4)
        va = np.arange(0, 10, dtype=np.int64)
        vb = np.arange(10, 30, dtype=np.int64)
        plan = MovePlan(
            moves=[
                MoveRequest(src=0, dst=1, vertices=va),
                MoveRequest(src=2, dst=3, vertices=vb),
            ]
        )
        engine.assignment[vb] = 2
        engine.paused = True
        engine._pending_plan = plan
        engine._stop_begin_time = engine.now
        engine._on_global_stop(0.0)
        event = engine.queue.pop()
        times = []
        for src, dst, verts in ((0, 1, va), (2, 3, vb)):
            link = engine.cluster.link(src, dst)
            payload = verts.size * engine.config.vertex_state_bytes
            times.append(link.latency + payload / link.bandwidth)
        assert event.time == pytest.approx(max(times), rel=1e-12)


class TestStallDuration:
    def test_stall_excludes_async_planning_time(self):
        _e, trace, _res = _run_workload(adaptive=True, repartition_mode="global")
        assert len(trace.repartitions) >= 1
        for rec in trace.repartitions:
            assert 0.0 <= rec.stall_duration <= rec.barrier_duration
            # barrier_duration additionally charges the overlapped async
            # Q-cut computation, which ran before STOP-begin
            assert (rec.barrier_duration - rec.stall_duration) == pytest.approx(
                QCUT_COMPUTE_TIME, rel=1e-9
            )
        assert trace.total_repartition_stall() == pytest.approx(
            sum(r.stall_duration for r in trace.repartitions)
        )

    def test_partial_stall_not_longer_than_global(self):
        _eg, trace_g, _rg = _run_workload(adaptive=True, repartition_mode="global")
        _ep, trace_p, _rp = _run_workload(adaptive=True, repartition_mode="partial")
        assert trace_g.repartitions and trace_p.repartitions
        # scoped drains finish no later on average: fewer computes to wait
        # out and fewer workers to ack the halt
        mean_g = np.mean([r.stall_duration for r in trace_g.repartitions])
        mean_p = np.mean([r.stall_duration for r in trace_p.repartitions])
        assert mean_p <= mean_g * 1.05
