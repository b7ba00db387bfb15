"""Tests for the hybrid barrier synchronization semantics (§3.3)."""

import numpy as np
import pytest

from engine_harness import LoggedQueue, ScriptedController
from repro.core import Controller, ControllerConfig
from repro.engine import EngineConfig, QGraphEngine, Query, SyncMode
from repro.graph import GraphBuilder, grid_graph
from repro.partitioning import HashPartitioner
from repro.queries import BfsProgram, SsspProgram
from repro.simulation.cluster import make_cluster
from repro.simulation.events import EventQueue


def engine_for(graph, k, mode, assignment=None):
    if assignment is None:
        assignment = HashPartitioner(seed=0).partition(graph, k)
    return QGraphEngine(
        graph,
        make_cluster("M2", k),
        assignment,
        controller=Controller(k),
        config=EngineConfig(sync_mode=mode, adaptive=False),
    )


def left_right_assignment(rows, cols):
    return np.array(
        [0 if (v % cols) < cols // 2 else 1 for v in range(rows * cols)],
        dtype=np.int64,
    )


class TestLocalBarrier:
    def test_local_query_no_controller_acks(self):
        """A fully local query must not produce barrier acks (local barrier)."""
        g = grid_graph(4, 8)
        eng = engine_for(g, 2, SyncMode.HYBRID, left_right_assignment(4, 8))
        eng.submit(Query(0, BfsProgram(0, None, max_depth=2), (0,)))
        trace = eng.run()
        assert trace.queries[0].locality == pytest.approx(1.0)
        assert trace.barrier_acks == 0

    def test_local_faster_than_distributed(self):
        """The same logical query is faster when it runs fully locally."""
        g = grid_graph(4, 8)
        local = engine_for(g, 2, SyncMode.HYBRID, left_right_assignment(4, 8))
        local.submit(Query(0, BfsProgram(0, None, max_depth=3), (0,)))
        t_local = local.run().queries[0].latency

        scattered = engine_for(g, 2, SyncMode.HYBRID)  # hash assignment
        scattered.submit(Query(0, BfsProgram(0, None, max_depth=3), (0,)))
        t_scattered = scattered.run().queries[0].latency
        assert t_local < t_scattered

    def test_query_escapes_local_mode(self):
        """A query growing beyond its worker switches to limited barriers."""
        g = grid_graph(4, 8)
        eng = engine_for(g, 2, SyncMode.HYBRID, left_right_assignment(4, 8))
        eng.submit(Query(0, BfsProgram(0, None), (0,)))  # unbounded BFS
        trace = eng.run()
        rec = trace.queries[0]
        assert 0 < rec.locality < 1.0
        assert trace.barrier_acks > 0


class TestLimitedBarrier:
    def test_acks_only_from_involved_workers(self):
        """With k=4 but a 2-worker query, acks stay below the global count."""
        g = grid_graph(4, 8)
        assignment = left_right_assignment(4, 8)  # workers 0/1 only
        eng = QGraphEngine(
            g,
            make_cluster("M2", 4),
            assignment,
            controller=Controller(4),
            config=EngineConfig(sync_mode=SyncMode.HYBRID, adaptive=False),
        )
        eng.submit(Query(0, BfsProgram(0, None), (0,)))
        trace = eng.run()
        iterations = trace.queries[0].iterations
        # a global barrier would collect 4 acks per iteration
        assert trace.barrier_acks < 4 * iterations


class TestGlobalPerQueryBarrier:
    def test_all_workers_ack(self):
        g = grid_graph(4, 8)
        k = 4
        eng = engine_for(g, k, SyncMode.GLOBAL_PER_QUERY)
        eng.submit(Query(0, BfsProgram(0, None, max_depth=4), (0,)))
        trace = eng.run()
        iterations = trace.queries[0].iterations
        assert trace.barrier_acks >= k * iterations

    def test_slower_than_hybrid_for_local_queries(self):
        g = grid_graph(4, 8)
        assignment = left_right_assignment(4, 8)
        results = {}
        for mode in (SyncMode.HYBRID, SyncMode.GLOBAL_PER_QUERY):
            eng = QGraphEngine(
                g,
                make_cluster("M2", 4),
                assignment,
                controller=Controller(4),
                config=EngineConfig(sync_mode=mode, adaptive=False),
            )
            eng.submit(Query(0, BfsProgram(0, None, max_depth=3), (0,)))
            results[mode] = eng.run().queries[0].latency
        assert results[SyncMode.HYBRID] < results[SyncMode.GLOBAL_PER_QUERY]


class TestSharedBspBarrier:
    def test_straggler_coupling(self):
        """Under the shared barrier a short query waits for a heavy one."""
        g = grid_graph(6, 6)
        heavy = Query(1, SsspProgram(35), tuple(range(36)))  # all-source SSSP

        short_alone = engine_for(g, 2, SyncMode.SHARED_BSP)
        short_alone.submit(Query(0, BfsProgram(0, None, max_depth=2), (0,)))
        t_alone = short_alone.run().queries[0].latency

        coupled = engine_for(g, 2, SyncMode.SHARED_BSP)
        coupled.submit(Query(0, BfsProgram(0, None, max_depth=2), (0,)))
        coupled.submit(heavy)
        t_coupled = coupled.run().queries[0].latency
        assert t_coupled > t_alone

    def test_hybrid_decouples_stragglers(self):
        """The same pair under hybrid barriers couples much less."""
        g = grid_graph(6, 6)

        def run(mode):
            eng = engine_for(g, 2, mode)
            eng.submit(Query(0, BfsProgram(0, None, max_depth=2), (0,)))
            eng.submit(Query(1, SsspProgram(35), tuple(range(36))))
            return eng.run().queries[0].latency

        assert run(SyncMode.HYBRID) < run(SyncMode.SHARED_BSP)

    def test_late_arrival_joins_next_superstep(self):
        g = grid_graph(5, 5)
        eng = engine_for(g, 2, SyncMode.SHARED_BSP)
        eng.submit(Query(0, SsspProgram(0, 24), (0,)))
        eng.submit(Query(1, SsspProgram(24, 0), (24,)), arrival_time=0.001)
        trace = eng.run()
        assert len(trace.finished_queries()) == 2
        assert eng.query_result(1)["distance"] == pytest.approx(8.0)

    def test_same_instant_starts_share_the_first_superstep(self, monkeypatch):
        """Queries started at one instant all join the superstep that
        instant releases: each has a task dispatched before the first
        task computed."""
        monkeypatch.setattr("repro.engine.engine.EventQueue", LoggedQueue)
        g = grid_graph(6, 6)
        eng = engine_for(g, 3, SyncMode.SHARED_BSP)
        for qid, (src, dst) in enumerate([(0, 35), (35, 0), (5, 30), (30, 5)]):
            eng.submit(Query(qid, SsspProgram(src, dst), (src,)))
        trace = eng.run()
        assert len(trace.finished_queries()) == 4
        first_done = next(
            i for i, (_t, _s, kind, _p) in enumerate(eng.queue.log)
            if kind == "compute_done"
        )
        first_superstep = {
            dict(payload)["query_id"]
            for _t, _s, kind, payload in eng.queue.log[:first_done]
            if kind == "task_ready"
        }
        assert first_superstep == {0, 1, 2, 3}

    def test_start_at_the_instant_a_stop_opens_runs_after_start(self, monkeypatch):
        """A query that starts, with no superstep held, at the instant a
        Q-cut's STOP opens: its release fires during the STOP, and START
        must still begin the superstep it joins.

        A first run learns when the scripted plan's ``qcut_done`` fires
        (after the only other query finished); the second run submits a
        query arriving at exactly that time, which the queue pops first."""
        monkeypatch.setattr("repro.engine.engine.EventQueue", LoggedQueue)
        g = grid_graph(4, 4)

        def run(late_arrival=None):
            eng = QGraphEngine(
                g,
                make_cluster("M2", 2),
                HashPartitioner(seed=0).partition(g, 2),
                controller=ScriptedController(2, np.array([1, 2], dtype=np.int64)),
                config=EngineConfig(sync_mode=SyncMode.SHARED_BSP),
            )
            eng.submit(Query(0, BfsProgram(0, None, max_depth=1), (0,)))
            if late_arrival is not None:
                eng.submit(Query(1, SsspProgram(15, 0), (15,)), arrival_time=late_arrival)
            return eng, eng.run()

        eng, trace = run()
        (stop_time,) = [t for t, _s, kind, _p in eng.queue.log if kind == "qcut_done"]
        assert trace.queries[0].end_time < stop_time
        eng, trace = run(stop_time)
        assert [kind for t, _s, kind, _p in eng.queue.log if t == stop_time] == [
            "arrival", "qcut_done", "superstep_release"
        ]
        assert len(trace.repartitions) == 1
        assert len(trace.finished_queries()) == 2
        assert eng.query_result(1)["distance"] == pytest.approx(6.0)

    def test_arrival_never_starts_a_superstep_before_the_release(self, monkeypatch):
        """A query arriving while a superstep is releasing (its last task
        settled, its release event still ahead) joins the next superstep;
        it does not dispatch one before the shared barrier released.

        Swept over arrival times across the first query's lifetime: no
        superstep task is dispatched while a release is pending, and the
        arrival never lets the running query finish sooner than it does
        alone, which lock-step supersteps cannot do."""

        class ReleaseWatch(EventQueue):
            """Counts task dispatches made while a superstep release is
            still pending in the queue."""

            def __init__(self):
                super().__init__()
                self.pending = []
                self.early = 0

            def schedule(self, time, kind, **payload):
                if kind == "task_ready" and any(t > self.now for t in self.pending):
                    self.early += 1
                event = super().schedule(time, kind, **payload)
                if kind == "superstep_release":
                    self.pending.append(event.time)
                return event

            def pop(self):
                event = super().pop()
                if event is not None and event.kind == "superstep_release":
                    self.pending.remove(event.time)
                return event

        monkeypatch.setattr("repro.engine.engine.EventQueue", ReleaseWatch)
        g = grid_graph(6, 6)

        def run(arrival=None):
            eng = engine_for(g, 3, SyncMode.SHARED_BSP)
            eng.submit(Query(0, SsspProgram(0, 35), (0,)))
            if arrival is not None:
                eng.submit(Query(1, SsspProgram(35, 0), (35,)), arrival_time=arrival)
            trace = eng.run()
            assert len(trace.finished_queries()) == (1 if arrival is None else 2)
            return trace.queries[0].latency, eng.queue.early

        alone, _ = run()
        for arrival in np.linspace(0.0, alone, 101):
            latency, early = run(float(arrival))
            assert early == 0, arrival
            assert latency >= alone, arrival

    def test_each_superstep_seed_gets_a_fresh_epoch(self):
        """Every BSP re-seed of a query's ack set bumps its barrier epoch.

        Recovery's stale-ack fencing (and the ack-completeness protocol
        proof) rely on a re-seeded ack set never sharing an epoch with
        the generation it replaced: an ack stamped under superstep N must
        not count toward superstep N+1's completeness.
        """
        g = grid_graph(5, 5)
        eng = engine_for(g, 2, SyncMode.SHARED_BSP)
        eng.submit(Query(0, SsspProgram(0, 24), (0,)))
        eng.submit(Query(1, SsspProgram(24, 0), (24,)))

        # step the run one timestamp at a time and record every new epoch a
        # running query shows (a started query holds epoch 0 until its first
        # seed): a seed and its tasks are at different timestamps, so each
        # seed is seen
        seeds = []  # (query_id, epoch), in order of observation
        seen = {}
        while eng.queue.peek_time() is not None:
            eng.run(until=eng.queue.peek_time())
            for qid, qr in sorted(eng.runtimes.items()):
                if not qr.finished and qr.barrier_epoch != seen.get(qid, 0):
                    seen[qid] = qr.barrier_epoch
                    seeds.append((qid, qr.barrier_epoch))
        trace = eng.trace
        assert len(trace.finished_queries()) == 2
        assert len(seeds) > 2  # the run actually exercised several supersteps
        for qid in (0, 1):
            epochs = [epoch for q, epoch in seeds if q == qid]
            # strictly increasing: no two generations ever share an epoch
            assert epochs == sorted(set(epochs))
            # one fresh epoch per superstep the query took part in
            assert len(epochs) == trace.queries[qid].iterations
