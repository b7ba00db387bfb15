"""Metric traces collected during a simulation run.

Every figure of the paper's evaluation is a post-processing of these traces:

* per-query latency records                        -> Figs. 5, 6a-c, 7
* per-(worker, time-bucket) vertex executions      -> Fig. 6e (imbalance)
* per-(query, iteration) locality flags            -> Fig. 6f (locality)
* repartitioning events                            -> barrier-cost analysis
* message counters                                 -> communication overhead
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "QueryRecord",
    "RepartitionRecord",
    "GraphChurnRecord",
    "RecoveryRecord",
    "MetricsTrace",
]


@dataclass
class QueryRecord:
    """Lifecycle facts of one executed query."""

    query_id: int
    kind: str
    start_time: float
    end_time: float = float("nan")
    iterations: int = 0
    local_iterations: int = 0
    phase: str = "default"

    @property
    def latency(self) -> float:
        """End-to-end latency (§2's definition: last minus first activity)."""
        return self.end_time - self.start_time

    @property
    def locality(self) -> float:
        """Fraction of iterations executed on a single worker (§3.4 metric)."""
        if self.iterations == 0:
            return 1.0
        return self.local_iterations / self.iterations


@dataclass
class RepartitionRecord:
    """One adaptive repartitioning (STOP/START barrier, global or partial).

    ``barrier_duration`` is kept for compatibility: it is measured from the
    moment the *asynchronous* Q-cut planning was triggered, so it includes
    the planning time that overlaps normal execution (§3.4) and therefore
    overstates the disruption.  ``stall_duration`` is the honest number —
    measured from STOP-begin (when the engine starts holding tasks) to
    START (when held queries resume).
    """

    time: float
    moved_vertices: int
    num_moves: int
    barrier_duration: float
    cost_before: float
    cost_after: float
    #: workers halted by the STOP barrier (every worker in global mode; the
    #: plan's involved-worker closure in partial mode)
    involved_workers: Tuple[int, ...] = ()
    #: STOP-begin -> START; excludes the overlapped async planning time
    stall_duration: float = float("nan")


@dataclass(frozen=True)
class GraphChurnRecord:
    """One applied graph-stream churn epoch (a flushed topology delta)."""

    time: float
    inserted_edges: int = 0
    deleted_edges: int = 0
    updated_weights: int = 0
    added_vertices: int = 0
    removed_vertices: int = 0
    #: mutations the tolerant application skipped (already-absent edges,
    #: edges wired to since-removed vertices, ...)
    skipped_mutations: int = 0
    #: in-flight next-iteration messages dropped because their target
    #: vertex was tombstoned
    dropped_messages: int = 0


@dataclass(frozen=True)
class RecoveryRecord:
    """One crash-recovery barrier (detection -> rollback -> replay start).

    ``stall_duration`` is the honest disruption window, measured like the
    repartition stall: from the moment the recovery STOP begins holding
    tasks until the START that resumes the restored queries.  Rolled-back
    iterations are *replayed* after the START, so their cost shows up in the
    ordinary latency records — this record only accounts the extra stall.
    """

    time: float
    #: crashed workers handled by this recovery barrier
    workers: Tuple[int, ...]
    #: crash -> heartbeat detection, max over the handled crashes
    detection_latency: float
    queries_rolled_back: int
    iterations_rolled_back: int
    #: vertices re-homed off the dead workers onto the survivors
    rehomed_vertices: int
    stall_duration: float


@dataclass
class MetricsTrace:
    """Mutable metrics sink passed through the engine."""

    workload_bucket: float = 10.0
    queries: Dict[int, QueryRecord] = field(default_factory=dict)
    repartitions: List[RepartitionRecord] = field(default_factory=list)
    churn_events: List[GraphChurnRecord] = field(default_factory=list)
    recoveries: List[RecoveryRecord] = field(default_factory=list)
    local_messages: int = 0
    remote_messages: int = 0
    remote_batches: int = 0
    barrier_acks: int = 0
    barrier_releases: int = 0
    # ---- fault-injection accounting (all zero on fault-free runs) ----
    #: vertex-message batches lost on the wire and retransmitted
    dropped_batches: int = 0
    #: duplicated batches delivered and discarded by the receiver
    duplicated_batches: int = 0
    #: control messages (barrier acks / redundant acks) retransmitted
    control_retries: int = 0
    #: per-barrier stats reports that never reached the controller
    lost_reports: int = 0
    #: compute tasks whose results died with their worker
    lost_computes: int = 0
    #: barrier-aligned checkpoints written
    checkpoints_taken: int = 0
    worker_crashes: int = 0
    worker_recoveries: int = 0
    controller_crashes: int = 0
    #: (worker, bucket) -> number of vertex executions
    _workload: Dict[Tuple[int, int], int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def query_started(self, query_id: int, kind: str, time: float, phase: str) -> None:
        self.queries[query_id] = QueryRecord(
            query_id=query_id, kind=kind, start_time=time, phase=phase
        )

    def query_finished(self, query_id: int, time: float) -> None:
        self.queries[query_id].end_time = time

    def iteration_executed(self, query_id: int, num_workers_involved: int) -> None:
        record = self.queries[query_id]
        record.iterations += 1
        if num_workers_involved <= 1:
            record.local_iterations += 1

    def vertices_executed(self, worker: int, time: float, count: int) -> None:
        bucket = int(time / self.workload_bucket)
        key = (worker, bucket)
        self._workload[key] = self._workload.get(key, 0) + count

    def repartitioned(self, record: RepartitionRecord) -> None:
        self.repartitions.append(record)

    def graph_updated(self, record: GraphChurnRecord) -> None:
        self.churn_events.append(record)

    def recovered(self, record: RecoveryRecord) -> None:
        self.recoveries.append(record)

    # ------------------------------------------------------------------
    # aggregations used by the benchmark harness
    # ------------------------------------------------------------------
    def finished_queries(self) -> List[QueryRecord]:
        """Records of all queries that have completed."""
        return [q for q in self.queries.values() if not np.isnan(q.end_time)]

    def total_latency(self, phase: Optional[str] = None) -> float:
        """Sum of query latencies (Fig. 6a-c reporting)."""
        return float(
            sum(
                q.latency
                for q in self.finished_queries()
                if phase is None or q.phase == phase
            )
        )

    def mean_latency(self, phase: Optional[str] = None) -> float:
        """Average query latency."""
        latencies = [
            q.latency
            for q in self.finished_queries()
            if phase is None or q.phase == phase
        ]
        return float(np.mean(latencies)) if latencies else float("nan")

    def makespan(self) -> float:
        """First start to last finish (Fig. 7's "total query latency")."""
        finished = self.finished_queries()
        if not finished:
            return 0.0
        return max(q.end_time for q in finished) - min(q.start_time for q in finished)

    def total_repartition_stall(self) -> float:
        """Sum of honest repartition stalls (``stall_duration``) so far.

        Records written before the field existed (NaN) are skipped.
        """
        return float(
            sum(
                r.stall_duration
                for r in self.repartitions
                if not np.isnan(r.stall_duration)
            )
        )

    def total_recovery_stall(self) -> float:
        """Sum of crash-recovery stalls (STOP-begin -> START)."""
        return float(sum(r.stall_duration for r in self.recoveries))

    def mean_locality(self) -> float:
        """Average per-query locality (Fig. 6f / §4.2 claims)."""
        finished = self.finished_queries()
        if not finished:
            return float("nan")
        return float(np.mean([q.locality for q in finished]))

    @staticmethod
    def _windowed_means(
        end_times: np.ndarray, values: np.ndarray, window: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Mean of ``values`` per completion-time window, empty windows
        skipped.

        One sort + :func:`np.searchsorted` bucketing instead of the former
        per-window rescan of every finished query (O(windows × queries)),
        with window edges computed as ``i * window`` (not accumulated with
        ``start += window``, which drifts for long traces).
        """
        if end_times.size == 0:
            return np.empty(0), np.empty(0)
        order = np.argsort(end_times, kind="stable")
        ends = end_times[order]
        vals = values[order]
        # windows [i*w, (i+1)*w) for i = 0 .. floor(t_end / w)
        num_windows = int(np.floor(ends[-1] / window)) + 1
        edges = np.arange(num_windows + 1, dtype=np.float64) * window
        bounds = np.searchsorted(ends, edges, side="left")
        counts = np.diff(bounds)
        sums = np.concatenate(([0.0], np.cumsum(vals)))
        keep = counts > 0
        means = (sums[bounds[1:]] - sums[bounds[:-1]])[keep] / counts[keep]
        return edges[1:][keep], means

    def latency_series(
        self, window: float, phase: Optional[str] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Windowed average latency over completion time (Fig. 5 series).

        Returns ``(window_end_times, mean_latency_per_window)``; empty
        windows are skipped.
        """
        finished = [
            q for q in self.finished_queries() if phase is None or q.phase == phase
        ]
        return self._windowed_means(
            np.array([q.end_time for q in finished], dtype=np.float64),
            np.array([q.latency for q in finished], dtype=np.float64),
            window,
        )

    def workload_imbalance_series(self, num_workers: int) -> Tuple[np.ndarray, np.ndarray]:
        """Per-bucket workload imbalance (Fig. 6e).

        Imbalance of a bucket is the mean absolute deviation of the per-worker
        vertex-execution counts from their mean, relative to the mean —
        "a worker's deviation from the average workload" (§4.2).

        One ``bincount`` scatter over the ``(worker, bucket)`` keys builds
        the dense bucket × worker load matrix, replacing the former
        per-bucket rescan of the whole dict (O(buckets × workers) lookups).
        """
        if not self._workload:
            return np.empty(0), np.empty(0)
        keys = np.fromiter(
            (k for pair in self._workload for k in pair),
            dtype=np.int64,
            count=2 * len(self._workload),
        ).reshape(-1, 2)
        workers = keys[:, 0]
        buckets = keys[:, 1]
        counts = np.fromiter(
            self._workload.values(), dtype=np.float64, count=len(self._workload)
        )
        uniq_buckets, bucket_idx = np.unique(buckets, return_inverse=True)
        in_range = workers < num_workers
        loads = np.bincount(
            bucket_idx[in_range] * num_workers + workers[in_range],
            weights=counts[in_range],
            minlength=uniq_buckets.size * num_workers,
        ).reshape(uniq_buckets.size, num_workers)
        means = loads.mean(axis=1)
        keep = means > 0
        deviation = np.abs(loads[keep] - means[keep, None]).mean(axis=1)
        times = (uniq_buckets[keep] + 1).astype(np.float64) * self.workload_bucket
        return times, deviation / means[keep]

    def mean_workload_imbalance(self, num_workers: int) -> float:
        """Run-average of :meth:`workload_imbalance_series`."""
        _, series = self.workload_imbalance_series(num_workers)
        return float(np.mean(series)) if series.size else float("nan")
