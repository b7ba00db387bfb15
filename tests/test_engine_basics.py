"""Engine unit tests: query lifecycle, correctness, isolation."""

import numpy as np
import pytest

from repro.core import Controller
from repro.engine import (
    EngineConfig,
    QGraphEngine,
    Query,
    QueryRuntime,
    SyncMode,
)
from repro.errors import EngineError, QueryError
from repro.graph import GraphBuilder, grid_graph
from repro.partitioning import HashPartitioner
from repro.queries import BfsProgram, SsspProgram
from repro.simulation.cluster import make_cluster


def build_engine(graph, k=2, sync_mode=SyncMode.HYBRID, adaptive=False, **cfg):
    assignment = HashPartitioner(seed=0).partition(graph, k)
    return QGraphEngine(
        graph,
        make_cluster("M2", k),
        assignment,
        controller=Controller(k),
        config=EngineConfig(sync_mode=sync_mode, adaptive=adaptive, **cfg),
    )


class TestLifecycle:
    def test_single_query_completes(self):
        g = grid_graph(5, 5)
        eng = build_engine(g)
        eng.submit(Query(0, SsspProgram(0, 24), (0,)))
        trace = eng.run()
        assert len(trace.finished_queries()) == 1
        assert trace.queries[0].latency > 0

    def test_query_result_distance(self):
        g = grid_graph(5, 5)
        eng = build_engine(g)
        eng.submit(Query(0, SsspProgram(0, 24), (0,)))
        eng.run()
        assert eng.query_result(0)["distance"] == pytest.approx(8.0)

    def test_duplicate_query_id_rejected(self):
        g = grid_graph(3, 3)
        eng = build_engine(g)
        eng.submit(Query(0, SsspProgram(0, 8), (0,)))
        # run so runtime is registered, then resubmit
        eng.run()
        with pytest.raises(EngineError):
            eng.submit(Query(0, SsspProgram(1, 8), (1,)))

    def test_empty_vsub_rejected(self):
        with pytest.raises(QueryError):
            Query(0, SsspProgram(0), ())

    def test_unknown_event_kind_raises(self):
        eng = build_engine(grid_graph(3, 3))
        eng.queue.schedule(0.0, "compute_dne")
        with pytest.raises(EngineError, match="no handler for event kind 'compute_dne'"):
            eng.run()

    def test_unknown_query_result(self):
        g = grid_graph(3, 3)
        eng = build_engine(g)
        with pytest.raises(EngineError):
            eng.query_result(99)

    def test_admission_control(self):
        """max_parallel_queries bounds concurrency; all queries still run."""
        g = grid_graph(6, 6)
        eng = build_engine(g, max_parallel_queries=2)
        for qid in range(6):
            eng.submit(Query(qid, BfsProgram(qid, 35 - qid), (qid,)))
        trace = eng.run()
        assert len(trace.finished_queries()) == 6

    def test_arrival_times_respected(self):
        g = grid_graph(4, 4)
        eng = build_engine(g)
        eng.submit(Query(0, BfsProgram(0, 15), (0,)), arrival_time=0.5)
        trace = eng.run()
        assert trace.queries[0].start_time >= 0.5

    def test_mismatched_assignment_rejected(self):
        g = grid_graph(3, 3)
        with pytest.raises(EngineError):
            QGraphEngine(
                g, make_cluster("M2", 2), np.zeros(5, dtype=np.int64)
            )

    def test_assignment_worker_out_of_range(self):
        g = grid_graph(3, 3)
        with pytest.raises(EngineError):
            QGraphEngine(
                g, make_cluster("M2", 2), np.full(9, 7, dtype=np.int64)
            )


class TestCorrectnessAcrossModes:
    @pytest.mark.parametrize(
        "mode", [SyncMode.HYBRID, SyncMode.GLOBAL_PER_QUERY, SyncMode.SHARED_BSP]
    )
    def test_sssp_distance_identical(self, mode):
        g = grid_graph(6, 6)
        eng = build_engine(g, k=3, sync_mode=mode)
        eng.submit(Query(0, SsspProgram(0, 35), (0,)))
        eng.run()
        assert eng.query_result(0)["distance"] == pytest.approx(10.0)

    @pytest.mark.parametrize(
        "mode", [SyncMode.HYBRID, SyncMode.GLOBAL_PER_QUERY, SyncMode.SHARED_BSP]
    )
    def test_multi_query_all_finish(self, mode):
        g = grid_graph(6, 6)
        eng = build_engine(g, k=3, sync_mode=mode)
        for qid in range(5):
            eng.submit(Query(qid, BfsProgram(qid, 35), (qid,)))
        trace = eng.run()
        assert len(trace.finished_queries()) == 5


class TestMultiQueryIsolation:
    def test_query_local_state(self):
        """Two SSSP queries on the same graph never see each other's data."""
        g = grid_graph(5, 5)
        eng = build_engine(g, k=2)
        eng.submit(Query(0, SsspProgram(0, 24), (0,)))
        eng.submit(Query(1, SsspProgram(24, 0), (24,)))
        eng.run()
        r0 = eng.query_result(0)
        r1 = eng.query_result(1)
        assert r0["distance"] == pytest.approx(8.0)
        assert r1["distance"] == pytest.approx(8.0)
        rt0, rt1 = eng.runtimes[0], eng.runtimes[1]
        assert rt0.answer[1] is not rt1.answer[1]
        assert rt0.materialized_state()[0] == 0.0       # own start
        assert rt1.materialized_state()[24] == 0.0

    def test_concurrent_queries_same_result_as_solo(self):
        g = grid_graph(6, 6)
        solo = build_engine(g, k=2)
        solo.submit(Query(0, SsspProgram(3, 33), (3,)))
        solo.run()
        expected = solo.query_result(0)["distance"]

        crowd = build_engine(g, k=2)
        for qid in range(8):
            crowd.submit(Query(qid, SsspProgram(3, 33), (3,)))
        crowd.run()
        for qid in range(8):
            assert crowd.query_result(qid)["distance"] == pytest.approx(expected)


class TestLocalityAccounting:
    def test_single_partition_query_fully_local(self):
        """A query on a 1-worker cluster has locality 1.0."""
        g = grid_graph(4, 4)
        eng = build_engine(g, k=1)
        eng.submit(Query(0, SsspProgram(0, 15), (0,)))
        trace = eng.run()
        assert trace.queries[0].locality == pytest.approx(1.0)

    def test_scattered_query_low_locality(self):
        g = grid_graph(6, 6)
        eng = build_engine(g, k=4)
        eng.submit(Query(0, SsspProgram(0, 35), (0,)))
        trace = eng.run()
        assert trace.queries[0].locality < 0.5

    def test_region_local_query(self):
        """A query inside one contiguous partition stays local."""
        g = grid_graph(4, 8)
        # left half -> worker 0, right half -> worker 1
        assignment = np.array(
            [0 if (v % 8) < 4 else 1 for v in range(32)], dtype=np.int64
        )
        eng = QGraphEngine(
            g,
            make_cluster("M2", 2),
            assignment,
            controller=Controller(2),
            config=EngineConfig(adaptive=False),
        )
        # query start 0 -> target 27 (row 3, col 3): entirely in left half...
        # use BFS with target pruning to keep the wave inside
        eng.submit(Query(0, BfsProgram(0, 3, max_depth=3), (0,)))
        trace = eng.run()
        assert trace.queries[0].locality == pytest.approx(1.0)


class TestRuntimeHelpers:
    def test_seed_messages_combine(self):
        q = Query(0, SsspProgram(0, 1), (0,))
        qr = QueryRuntime(q, grid_graph(4, 4))
        qr.seed_messages([(5, 3.0), (5, 1.0)], np.zeros(16, dtype=np.int64))
        vertices, messages = qr.next_mailboxes[0].concat()
        assert vertices.tolist() == [5]
        assert messages.tolist() == [1.0]  # min combiner

    def test_rotate(self):
        q = Query(0, SsspProgram(0, 1), (0,))
        qr = QueryRuntime(q, grid_graph(4, 4))
        qr.deliver_array(1, np.array([5]), np.array([1.0]))
        qr.rotate_mailboxes()
        assert 1 in qr.mailboxes
        assert qr.next_mailboxes == {}

    def test_rebucket(self):
        q = Query(0, SsspProgram(0, 1), (0,))
        qr = QueryRuntime(q, grid_graph(4, 4))
        qr.deliver_array(0, np.array([5]), np.array([1.0]), to_next=False)
        assignment = np.zeros(16, dtype=np.int64)
        assignment[5] = 3
        qr.rebucket(assignment)
        assert qr.mailboxes[3].concat()[0].tolist() == [5]
