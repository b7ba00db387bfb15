"""Admission scheduler tests: policy behavior, fifo equivalence, invariants."""

from collections import deque

import numpy as np
import pytest

from admission_policies import POLICIES, LifoScheduler, scheduler_for
from repro.core import Controller
from repro.engine import (
    EngineConfig,
    FifoScheduler,
    LocalityScheduler,
    QGraphEngine,
    Query,
    SyncMode,
    make_scheduler,
)
from repro.engine.scheduler import SCHEDULER_POLICIES
from repro.errors import EngineError
from repro.graph import grid_graph
from repro.partitioning import HashPartitioner
from repro.queries import BfsProgram, SsspProgram
from repro.simulation.cluster import make_cluster


def build_engine(graph, k=2, engine_cls=QGraphEngine, **cfg):
    assignment = HashPartitioner(seed=0).partition(graph, k)
    return engine_cls(
        graph,
        make_cluster("M2", k),
        assignment,
        controller=Controller(k),
        config=EngineConfig(adaptive=cfg.pop("adaptive", False), **cfg),
    )


def q(qid, start=0, target=None):
    return Query(qid, BfsProgram(start, target), (start,))


# ----------------------------------------------------------------------
# unit: policy ordering
# ----------------------------------------------------------------------
class TestPolicies:
    def test_fifo_order(self):
        s = FifoScheduler()
        for i in range(5):
            s.add(q(i, start=i))
        assert [s.pop().query_id for _ in range(5)] == [0, 1, 2, 3, 4]
        assert s.pop() is None

    def test_locality_balances_cohorts_across_home_workers(self):
        # vertices 0..9, even -> worker 0, odd -> worker 1
        assignment = np.arange(10, dtype=np.int64) % 2
        s = LocalityScheduler(assignment)
        # interleaved arrivals: w1, w0, w1, w0, w0
        for qid, start in enumerate([1, 2, 3, 4, 6]):
            s.add(q(qid, start=start))
        homes = []
        while s:
            query = s.pop()
            s.on_query_started(query)  # what the engine does on admission
            homes.append(int(assignment[query.initial_vertices[0]]))
        # admissions alternate between home workers (fewest in-flight first,
        # ties to the largest bucket), never drain one worker's bucket while
        # the other is idle
        assert homes == [0, 1, 0, 1, 0]

    def test_locality_prefers_idle_home_workers(self):
        assignment = np.arange(10, dtype=np.int64) % 2
        s = LocalityScheduler(assignment)
        # three queries already running on worker 0, none on worker 1
        for qid, start in enumerate([0, 2, 4]):
            running = q(qid, start=start)
            s.on_query_started(running)
        s.add(q(10, start=6))   # home worker 0
        s.add(q(11, start=1))   # home worker 1
        assert s.pop().query_id == 11  # worker 1 is idle -> admit its cohort

    def test_locality_fifo_within_bucket(self):
        assignment = np.zeros(10, dtype=np.int64)
        s = LocalityScheduler(assignment)
        for qid in range(4):
            s.add(q(qid, start=qid))
        assert [s.pop().query_id for _ in range(4)] == [0, 1, 2, 3]

    def test_locality_rebuckets_on_assignment_change(self):
        assignment = np.zeros(10, dtype=np.int64)
        s = LocalityScheduler(assignment)
        for qid, start in enumerate([0, 1, 2, 3]):
            s.add(q(qid, start=start))
        moved = assignment.copy()
        moved[[1, 3]] = 1  # vertices 1 and 3 re-homed to worker 1
        s.on_assignment_changed(moved)
        order, homes = [], []
        while s:
            query = s.pop()
            order.append(query.query_id)
            homes.append(int(moved[query.initial_vertices[0]]))
        # buckets follow the *new* assignment: admissions alternate between
        # the two home workers, FIFO within each bucket
        assert order == [0, 1, 2, 3]
        assert homes == [0, 1, 0, 1]
        assert s.pop() is None

    def test_locality_rehomes_inflight_counts_on_assignment_change(self):
        assignment = np.zeros(10, dtype=np.int64)
        s = LocalityScheduler(assignment)
        running = q(0, start=0)  # home worker 0 under the old assignment
        s.on_query_started(running)
        moved = assignment.copy()
        moved[0] = 1  # the running query's start vertex moves to worker 1
        s.on_assignment_changed(moved)
        s.add(q(1, start=1))  # home worker 0 (vertex 1 stayed)
        s.add(q(2, start=0))  # home worker 1 under the new assignment
        # worker 1 now hosts the running query's scope -> admit worker 0 first
        assert s.pop().query_id == 1
        s.on_query_finished(running)  # decrements the *re-homed* count
        assert s._inflight[1] == 0

    def test_make_scheduler_rejects_unknown(self):
        with pytest.raises(EngineError):
            make_scheduler("bogus")

    @pytest.mark.parametrize(
        "name, cls", [("fifo", FifoScheduler), ("locality", LocalityScheduler)]
    )
    def test_make_scheduler_builds_named_policy(self, name, cls):
        assert sorted(SCHEDULER_POLICIES) == ["fifo", "locality"]
        assignment = np.arange(10, dtype=np.int64) % 2
        s = make_scheduler(name, assignment)
        assert type(s) is cls and s.name == name
        s.add(q(0, start=3))
        s.add(q(1, start=4))
        # fifo keeps arrival order; locality, seeded with the assignment,
        # takes the tie between the idle home workers 1 and 0 to worker 0
        assert s.pop().query_id == (0 if name == "fifo" else 1)

    def test_make_scheduler_passes_instance_through(self):
        inst = FifoScheduler()
        assert make_scheduler(inst) is inst

    def test_len_and_bool(self):
        for s in (
            FifoScheduler(),
            LocalityScheduler(np.zeros(5, dtype=np.int64)),
        ):
            assert not s and len(s) == 0
            s.add(q(0))
            assert s and len(s) == 1
            assert [query.query_id for query in s.pending_queries()] == [0]


# ----------------------------------------------------------------------
# fifo equivalence: the scheduler abstraction is event-for-event identical
# to the historical raw-deque admission queue
# ----------------------------------------------------------------------
class ReferenceDequeEngine(QGraphEngine):
    """The pre-scheduler engine: admission through a bare FIFO deque."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._ref_pending: deque = deque()

    def _on_arrival(self, now, query):
        if self.paused or len(self.running) >= self.config.max_parallel_queries:
            self._ref_pending.append(query)
            return
        self._start_query(query, now)

    def _admit_pending(self, now):
        while (
            self._ref_pending
            and not self.paused
            and len(self.running) < self.config.max_parallel_queries
        ):
            self._start_query(self._ref_pending.popleft(), now)


def trace_summary(engine):
    t = engine.trace
    return {
        "events": engine._events_processed,
        "finished": sorted(
            (r.query_id, round(r.start_time, 12), round(r.end_time, 12),
             r.iterations, r.local_iterations)
            for r in t.finished_queries()
        ),
        "local_messages": t.local_messages,
        "remote_messages": t.remote_messages,
        "barrier_acks": t.barrier_acks,
        "barrier_releases": t.barrier_releases,
        "repartitions": len(t.repartitions),
    }


class TestFifoEquivalence:
    @pytest.mark.parametrize("adaptive", [False, True])
    @pytest.mark.parametrize(
        "mode", [SyncMode.HYBRID, SyncMode.GLOBAL_PER_QUERY, SyncMode.SHARED_BSP]
    )
    def test_fifo_matches_reference_deque(self, mode, adaptive):
        g = grid_graph(8, 8)
        rng = np.random.default_rng(3)
        starts = rng.integers(0, 64, size=24)
        engines = []
        for cls in (QGraphEngine, ReferenceDequeEngine):
            eng = build_engine(
                g,
                k=4,
                engine_cls=cls,
                sync_mode=mode,
                adaptive=adaptive,
                max_parallel_queries=4,
                scheduler="fifo",
            )
            for qid, start in enumerate(starts):
                eng.submit(
                    Query(qid, BfsProgram(int(start), 63 - int(start)), (int(start),)),
                    arrival_time=0.001 * (qid % 5),
                )
            eng.run()
            engines.append(eng)
        assert trace_summary(engines[0]) == trace_summary(engines[1])


# ----------------------------------------------------------------------
# admission-queue invariants
# ----------------------------------------------------------------------
class InvariantEngine(QGraphEngine):
    """Asserts admission invariants on every query start."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.start_counts = {}
        self.max_running_seen = 0

    def _start_query(self, query, now):
        self.start_counts[query.query_id] = (
            self.start_counts.get(query.query_id, 0) + 1
        )
        super()._start_query(query, now)
        self.max_running_seen = max(self.max_running_seen, len(self.running))


class TestAdmissionInvariants:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_cap_respected_and_exactly_once_with_repartitions(self, policy):
        """max_parallel never exceeded across repartition pause/resume; every
        pending query admitted exactly once; nothing lost."""
        g = grid_graph(10, 10)
        eng = build_engine(
            g,
            k=4,
            engine_cls=InvariantEngine,
            adaptive=True,  # exercises STOP/START pause/resume
            max_parallel_queries=3,
            scheduler=scheduler_for(policy),
        )
        phases = ["a", "b"]
        for qid in range(30):
            eng.submit(
                Query(
                    qid,
                    BfsProgram(qid % 100, (qid * 7) % 100),
                    (qid % 100,),
                    phase=phases[qid % 2],
                ),
                arrival_time=0.0002 * qid,
            )
        trace = eng.run()
        assert len(trace.finished_queries()) == 30
        assert eng.max_running_seen <= 3
        assert all(count == 1 for count in eng.start_counts.values())
        assert len(eng.start_counts) == 30
        assert len(eng.scheduler) == 0

    @pytest.mark.parametrize("policy", POLICIES)
    def test_policy_deterministic_under_fixed_seed(self, policy):
        summaries = []
        for _rep in range(2):
            g = grid_graph(8, 8)
            eng = build_engine(
                g,
                k=4,
                adaptive=True,
                max_parallel_queries=4,
                scheduler=scheduler_for(policy),
            )
            rng = np.random.default_rng(11)
            for qid in range(20):
                start = int(rng.integers(0, 64))
                eng.submit(
                    Query(qid, BfsProgram(start, 63 - start), (start,)),
                    arrival_time=float(rng.uniform(0, 0.002)),
                )
            eng.run()
            summaries.append(trace_summary(eng))
        assert summaries[0] == summaries[1]

    @pytest.mark.parametrize("policy", POLICIES)
    def test_all_queries_finish_under_every_policy(self, policy):
        g = grid_graph(6, 6)
        eng = build_engine(
            g, k=2, max_parallel_queries=2, scheduler=scheduler_for(policy)
        )
        for qid in range(8):
            eng.submit(Query(qid, BfsProgram(qid, 35 - qid), (qid,)))
        trace = eng.run()
        assert len(trace.finished_queries()) == 8

    def test_custom_policy_instance_orders_admissions(self):
        """A caller's own ``Scheduler`` instance decides the admission order:
        one slot, four queries arriving together, newest admitted first."""
        g = grid_graph(6, 6)
        eng = build_engine(
            g, k=2, max_parallel_queries=1, scheduler=LifoScheduler()
        )
        for qid in range(4):
            eng.submit(Query(qid, BfsProgram(qid, 35 - qid), (qid,)))
        trace = eng.run()
        records = sorted(trace.queries.values(), key=lambda r: r.start_time)
        assert [r.query_id for r in records] == [0, 3, 2, 1]

    def test_scenario_scheduler_knob(self):
        from repro.bench.harness import Scenario, run_scenario

        result = run_scenario(
            Scenario(
                name="sched-knob",
                main_queries=16,
                max_parallel=4,
                scheduler="locality",
                arrival="poisson",
                arrival_rate=2000.0,
                adaptive=False,
            )
        )
        assert len(result.trace.finished_queries()) == 16
        assert result.engine.scheduler.name == "locality"


# ----------------------------------------------------------------------
# pause/resume regression: run(until=...) must not drop the horizon event
# ----------------------------------------------------------------------
class TestPauseResume:
    def test_run_until_preserves_horizon_event(self):
        def build():
            eng = build_engine(grid_graph(8, 8), k=3, max_parallel_queries=2)
            for qid in range(10):
                eng.submit(
                    Query(qid, BfsProgram(qid, 63 - qid), (qid,)),
                    arrival_time=0.0005 * qid,
                )
            return eng

        baseline = build()
        baseline.run()
        expected = trace_summary(baseline)

        resumed = build()
        # pause at many horizons, including ones that land exactly between
        # events, then resume to quiescence
        horizon = 0.0
        for _ in range(50):
            horizon += 0.0007
            resumed.run(until=horizon)
        resumed.run()
        assert trace_summary(resumed) == expected

    def test_run_until_is_resumable_mid_query(self):
        eng = build_engine(grid_graph(6, 6), k=2)
        eng.submit(Query(0, SsspProgram(0, 35), (0,)))
        eng.run(until=1e-5)  # stop long before the query can finish
        assert not eng.trace.finished_queries()
        eng.run()
        assert len(eng.trace.finished_queries()) == 1
        assert eng.query_result(0)["distance"] == pytest.approx(10.0)
