"""Tests for the discrete-event simulation substrate."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.simulation import (
    ClusterSpec,
    EventQueue,
    MetricsTrace,
    NetworkModel,
    QueryRecord,
    RepartitionRecord,
    ethernet_1g,
    loopback_tcp,
    make_cluster,
    zero_cost,
)


class TestEventQueue:
    def test_time_order(self):
        q = EventQueue()
        q.schedule(3.0, "c")
        q.schedule(1.0, "a")
        q.schedule(2.0, "b")
        assert len(q) == 3
        assert [q.pop().kind for _ in range(3)] == ["a", "b", "c"]
        assert len(q) == 0 and q.pop() is None

    def test_fifo_tie_break(self):
        q = EventQueue()
        q.schedule(1.0, "first")
        q.schedule(1.0, "second")
        assert q.pop().kind == "first"
        assert q.pop().kind == "second"

    def test_now_advances(self):
        q = EventQueue()
        q.schedule(5.0, "x")
        q.pop()
        assert q.now == 5.0

    def test_no_scheduling_in_past(self):
        q = EventQueue()
        q.schedule(5.0, "x")
        q.pop()
        with pytest.raises(SimulationError):
            q.schedule(4.0, "y")

    def test_peek_time(self):
        q = EventQueue()
        assert q.peek_time() is None
        q.schedule(7.0, "x")
        assert q.peek_time() == 7.0
        assert len(q) == 1  # peeking pops nothing

    def test_payload_passthrough(self):
        q = EventQueue()
        q.schedule(1.0, "x", foo=42)
        assert q.pop().payload == {"foo": 42}


class TestNetworkModel:
    def test_batching(self):
        net = NetworkModel(latency=1e-4, bandwidth=1e8, batch_messages=32)
        assert net.num_batches(0) == 0
        assert net.num_batches(1) == 1
        assert net.num_batches(32) == 1
        assert net.num_batches(33) == 2

    def test_transfer_monotone_in_messages(self):
        net = ethernet_1g()
        times = [net.transfer_time(n) for n in (1, 10, 100, 1000)]
        assert times == sorted(times)

    def test_ethernet_slower_than_loopback(self):
        assert ethernet_1g().transfer_time(100) > loopback_tcp().transfer_time(100)
        assert ethernet_1g().control_latency > loopback_tcp().control_latency

    def test_zero_cost_free(self):
        net = zero_cost()
        assert net.transfer_time(1000) == pytest.approx(0.0, abs=1e-9)
        assert net.serialize_time(1000) == 0.0

    def test_control_rtt(self):
        net = loopback_tcp()
        assert net.control_rtt() == pytest.approx(2 * net.control_latency)

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkModel(latency=-1.0, bandwidth=1.0)
        with pytest.raises(ValueError):
            NetworkModel(latency=0.0, bandwidth=0.0)


class TestCluster:
    def test_scale_up_all_loopback(self):
        c = make_cluster("M2", 8)
        assert c.link(0, 7).name == c.intra_node.name
        assert c.node_of(5) == 0

    def test_c1_placement(self):
        c = make_cluster("C1", 8)
        assert c.num_nodes == 8
        assert c.link(0, 1) is c.inter_node
        assert c.link(0, 0) is c.intra_node

    def test_c1_nic_sharing_at_16_workers(self):
        c8 = make_cluster("C1", 8)
        c16 = make_cluster("C1", 16)
        # workers 0 and 8 share node 0 -> loopback; 0 and 1 cross nodes
        assert c16.node_of(0) == c16.node_of(8)
        assert c16.link(0, 8) is c16.intra_node
        # shared NIC halves the effective bandwidth
        assert c16.inter_node.bandwidth < c8.inter_node.bandwidth

    def test_controller_link(self):
        c = make_cluster("C1", 4)
        assert c.controller_link(0) is c.intra_node
        assert c.controller_link(1) is c.inter_node

    def test_unknown_kind(self):
        with pytest.raises(SimulationError):
            make_cluster("Z9", 4)

    def test_worker_bounds(self):
        c = make_cluster("M1", 2)
        with pytest.raises(SimulationError):
            c.node_of(5)

    def test_invalid_spec(self):
        from repro.simulation.cluster import M1

        with pytest.raises(SimulationError):
            ClusterSpec(num_workers=0, machine=M1)


class TestMetricsTrace:
    def make_trace(self):
        t = MetricsTrace(workload_bucket=1.0)
        t.query_started(1, "sssp", 0.0, "p1")
        t.iteration_executed(1, 1)
        t.iteration_executed(1, 3)
        t.query_finished(1, 4.0)
        t.query_started(2, "sssp", 1.0, "p2")
        t.iteration_executed(2, 1)
        t.query_finished(2, 2.0)
        return t

    def test_latency_and_locality(self):
        t = self.make_trace()
        rec = t.queries[1]
        assert rec.latency == pytest.approx(4.0)
        assert rec.locality == pytest.approx(0.5)

    def test_aggregates(self):
        t = self.make_trace()
        assert t.total_latency() == pytest.approx(5.0)
        assert t.mean_latency() == pytest.approx(2.5)
        assert t.makespan() == pytest.approx(4.0)
        assert t.mean_locality() == pytest.approx(0.75)

    def test_phase_filter(self):
        t = self.make_trace()
        assert t.total_latency(phase="p1") == pytest.approx(4.0)
        assert t.total_latency(phase="p2") == pytest.approx(1.0)

    def test_unfinished_query_excluded(self):
        t = self.make_trace()
        t.query_started(3, "sssp", 0.0, "p1")
        assert len(t.finished_queries()) == 2

    def test_latency_series(self):
        t = self.make_trace()
        times, values = t.latency_series(window=2.5)
        assert len(times) == len(values) == 2

    def test_workload_imbalance(self):
        t = MetricsTrace(workload_bucket=1.0)
        t.vertices_executed(0, 0.5, 100)
        t.vertices_executed(1, 0.5, 100)
        times, series = t.workload_imbalance_series(2)
        assert series[0] == pytest.approx(0.0)
        t.vertices_executed(0, 1.5, 200)
        _, series = t.workload_imbalance_series(2)
        assert series[-1] == pytest.approx(1.0)  # all load on one worker

    def test_repartition_records(self):
        t = self.make_trace()
        t.repartitioned(
            RepartitionRecord(
                time=1.0,
                moved_vertices=10,
                num_moves=2,
                barrier_duration=0.1,
                cost_before=100,
                cost_after=10,
            )
        )
        assert len(t.repartitions) == 1


class TestWindowedSeriesEquivalence:
    """The vectorized searchsorted bucketing must match the former
    per-window rescan loop (which it replaced for being O(windows x
    queries) and accumulating ``start += window`` float drift)."""

    @staticmethod
    def _reference_series(records, window, value_of, phase=None):
        finished = sorted(
            (q for q in records if phase is None or q.phase == phase),
            key=lambda q: q.end_time,
        )
        if not finished:
            return np.empty(0), np.empty(0)
        t_end = finished[-1].end_time
        times, values = [], []
        start = 0.0
        while start <= t_end:
            bucket = [
                value_of(q) for q in finished if start <= q.end_time < start + window
            ]
            if bucket:
                times.append(start + window)
                values.append(float(np.mean(bucket)))
            start += window
        return np.asarray(times), np.asarray(values)

    def _random_trace(self, seed, num_queries=200):
        rng = np.random.default_rng(seed)
        t = MetricsTrace()
        for qid in range(num_queries):
            start = float(rng.uniform(0, 50))
            t.query_started(qid, "sssp", start, phase="a" if qid % 3 else "b")
            for _ in range(int(rng.integers(1, 6))):
                t.iteration_executed(qid, int(rng.integers(1, 4)))
            t.query_finished(qid, start + float(rng.uniform(0.01, 10)))
        return t

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("window", [0.7, 2.5, 13.0])
    def test_latency_series_matches_reference(self, seed, window):
        t = self._random_trace(seed)
        for phase in (None, "a", "b"):
            times, values = t.latency_series(window, phase=phase)
            ref_t, ref_v = self._reference_series(
                t.finished_queries(), window, lambda q: q.latency, phase
            )
            np.testing.assert_allclose(times, ref_t, rtol=0, atol=1e-9)
            np.testing.assert_allclose(values, ref_v, rtol=1e-12)

    def test_end_time_on_window_edge(self):
        t = MetricsTrace()
        for qid, end in enumerate([0.0, 2.5, 5.0]):
            t.query_started(qid, "sssp", 0.0, "p")
            t.query_finished(qid, end)
        times, values = t.latency_series(2.5)
        # ends exactly on edges fall into the *following* window
        np.testing.assert_allclose(times, [2.5, 5.0, 7.5])
        np.testing.assert_allclose(values, [0.0, 2.5, 5.0])

    def test_empty_trace(self):
        t = MetricsTrace()
        times, values = t.latency_series(1.0)
        assert times.size == 0 and values.size == 0


class TestImbalanceSeriesEquivalence:
    """The one-bincount imbalance series must match the former per-bucket
    dict rescan (replaced for being O(buckets x workers) dict lookups)."""

    @staticmethod
    def _reference(trace, num_workers):
        """The pre-vectorization loop, verbatim."""
        if not trace._workload:
            return np.empty(0), np.empty(0)
        buckets = sorted({b for (_, b) in trace._workload})
        times, values = [], []
        for b in buckets:
            loads = np.array(
                [trace._workload.get((w, b), 0) for w in range(num_workers)],
                dtype=np.float64,
            )
            mean = loads.mean()
            if mean <= 0:
                continue
            times.append((b + 1) * trace.workload_bucket)
            values.append(float(np.mean(np.abs(loads - mean)) / mean))
        return np.asarray(times), np.asarray(values)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("num_workers", [1, 4, 8])
    def test_matches_reference(self, seed, num_workers):
        rng = np.random.default_rng(seed)
        t = MetricsTrace(workload_bucket=0.5)
        for _ in range(300):
            worker = int(rng.integers(0, num_workers))
            time = float(rng.uniform(0.0, 20.0))
            t.vertices_executed(worker, time, int(rng.integers(1, 50)))
        ref_times, ref_vals = self._reference(t, num_workers)
        vec_times, vec_vals = t.workload_imbalance_series(num_workers)
        np.testing.assert_allclose(vec_times, ref_times)
        np.testing.assert_allclose(vec_vals, ref_vals)

    def test_sparse_buckets_match_reference(self):
        t = MetricsTrace(workload_bucket=1.0)
        t.vertices_executed(0, 0.5, 10)     # bucket 0, only worker 0
        t.vertices_executed(2, 100.5, 30)   # distant bucket, only worker 2
        ref = self._reference(t, 4)
        vec = t.workload_imbalance_series(4)
        np.testing.assert_allclose(vec[0], ref[0])
        np.testing.assert_allclose(vec[1], ref[1])

    def test_empty_matches_reference(self):
        t = MetricsTrace()
        times, vals = t.workload_imbalance_series(3)
        assert times.size == 0 and vals.size == 0

    def test_mean_imbalance_unchanged(self):
        t = MetricsTrace(workload_bucket=1.0)
        t.vertices_executed(0, 0.5, 100)
        t.vertices_executed(1, 1.5, 100)
        ref_times, ref_vals = self._reference(t, 2)
        assert t.mean_workload_imbalance(2) == pytest.approx(float(ref_vals.mean()))
