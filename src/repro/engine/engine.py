"""The Q-Graph multi-query engine (discrete-event simulated).

This module orchestrates everything the paper's Figure 2 shows: workers
executing vertex functions on a partitioned graph, the centralized
controller handling barrier synchronization, statistics aggregation and
adaptive repartitioning, and the user-facing ``scheduleQuery`` front-end.

The engine runs in *virtual time*: worker CPUs are serial resources
(``busy_until`` clocks), message batches pay serialization + network costs
according to the cluster's link models, and barriers are controller
round-trips.  All orderings are deterministic.

Synchronization modes (see :mod:`repro.engine.barriers`):

* ``HYBRID`` — the paper's model.  Queries on a single worker run under a
  *local query barrier* with no controller round-trip; queries spanning
  several workers synchronize via *limited query barriers* involving only
  those workers; repartitioning uses a *STOP/START barrier* — global by
  default, or scoped to the move plan's involved workers when
  ``EngineConfig.repartition_mode == "partial"`` (queries disjoint from
  the plan keep iterating through the repartition).
* ``GLOBAL_PER_QUERY`` — Seraph-style [44]: per-query barriers spanning all
  workers (non-involved workers still process barrier acks).
* ``SHARED_BSP`` — Pregel-style: one barrier shared by all queries, whose
  participants (every worker × every running query) are released
  together at the end of each superstep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Any, Callable, Dict, List, Optional, Set, Tuple, Union

import numpy as np

from repro.core.controller import Controller, MovePlan
from repro.engine.barriers import SyncMode
from repro.engine.checkpoint import QueryCheckpoint
from repro.engine.query import Query, QueryRuntime
from repro.engine.sanitizer import SimulationSanitizer, sanitizer_enabled
from repro.engine.scheduler import Scheduler, make_scheduler
from repro.engine.vertex_program import reduce_aggregator
from repro.engine.worker import SimWorker
from repro.errors import EngineError
from repro.graph.delta import GraphDelta, MutableDiGraph
from repro.graph.digraph import DiGraph
from repro.simulation.cluster import ClusterSpec
from repro.simulation.events import EventQueue
from repro.simulation.faults import FaultPlan
from repro.simulation.network import NetworkModel
from repro.simulation.tracing import (
    GraphChurnRecord,
    MetricsTrace,
    RecoveryRecord,
    RepartitionRecord,
)

__all__ = [
    "EngineConfig",
    "QGraphEngine",
    "STATE_INVARIANT_GROUPS",
    "BARRIER_ACK_PROTOCOLS",
]

#: Attribute groups that must be mutated atomically inside any event
#: handler: no code path may *raise* between writes to two members of one
#: group, or an observer of the raised state (crash recovery, the
#: sanitizer, a caller catching EngineError) sees a torn update — e.g.
#: mailboxes still bucketed for workers the re-homed assignment no longer
#: names, or kernel buffers sized for a graph the assignment has already
#: outgrown.  The ``atomic-mutation`` rule in
#: :mod:`repro.analysis.lifecycle` statically checks every handler's call
#: closure against these declarations.
STATE_INVARIANT_GROUPS: Tuple[Tuple[str, ...], ...] = (
    # message conservation: re-homing vertices and re-bucketing their
    # in-flight mail are one transaction
    (
        "QGraphEngine.assignment",
        "QueryRuntime.mailboxes",
        "QueryRuntime.next_mailboxes",
    ),
    # state shape: the assignment and the dense per-vertex buffers must
    # describe the same vertex universe
    (
        "QGraphEngine.assignment",
        "QueryRuntime.kstate",
        "QueryRuntime.scope_mask",
    ),
)

#: The barrier-ack couples of the coordination protocol: each triple is
#: ``(ack set, participant set, epoch counter)``.  Acks accumulated in the
#: first member are counted against the membership in the second, and the
#: third numbers the barrier *generation* — any code that re-seeds either
#: set must keep all three consistent (reset the acks when membership
#: changes, bump the epoch when the acks restart) or an in-flight ack from
#: one generation completes a barrier it never joined.  The
#: ``ack-completeness`` rule in :mod:`repro.analysis.protocol` statically
#: checks every handler-path function against this declaration.
BARRIER_ACK_PROTOCOLS: Tuple[Tuple[str, str, str], ...] = (
    (
        "QueryRuntime.acked",
        "QueryRuntime.involved",
        "QueryRuntime.barrier_epoch",
    ),
)


#: CPU seconds a worker spends on a purely local barrier
LOCAL_BARRIER_COST = 1.0e-6
#: CPU seconds each involved worker spends writing its checkpoint shard,
#: plus ``message_handling_time`` per checkpointed message on that worker
#: (the simulated stable-storage write)
CHECKPOINT_COST = 2.0e-5
#: crash detection: the controller sweeps worker heartbeats every
#: ``HEARTBEAT_INTERVAL`` seconds and declares a worker dead once it has
#: been silent for ``HEARTBEAT_TIMEOUT`` (only while a fault plan
#: schedules crashes)
HEARTBEAT_INTERVAL = 0.002
HEARTBEAT_TIMEOUT = 0.004
#: control-plane hardening: a lost barrier ack is retransmitted after
#: ``CONTROL_RETRY_TIMEOUT`` seconds, the timeout multiplied by
#: ``CONTROL_RETRY_BACKOFF`` per attempt, for at most
#: ``CONTROL_MAX_RETRIES`` attempts (the final attempt always lands, so
#: control loss delays but never strands a barrier)
CONTROL_RETRY_TIMEOUT = 1.0e-3
CONTROL_RETRY_BACKOFF = 2.0
CONTROL_MAX_RETRIES = 8
#: the inbox-ready times of a dispatch that waits for no message (never written)
_NO_INBOX: Dict[int, float] = {}


@dataclass(frozen=True)
class EngineConfig:
    """Engine-level knobs.

    Attributes
    ----------
    sync_mode:
        Barrier synchronization model.
    max_parallel_queries:
        Queries executing concurrently (the paper runs "batches of 16
        parallel queries"); further queries wait in an admission queue.
    scheduler:
        Admission policy for that queue — a policy name (``"fifo"`` or
        ``"locality"``) or a :class:`~repro.engine.scheduler.Scheduler`
        instance.  ``"fifo"``
        is event-for-event identical to the historical deque.
    adaptive:
        Whether the controller's Q-cut adaptation loop is active.
    repartition_mode:
        ``"global"`` (default) drains and halts the whole cluster for every
        repartition, the paper's §3.4 STOP/START barrier.  ``"partial"``
        halts only the plan's *involved workers* (move sources and
        destinations, widened with the mailbox owners of the queries whose
        state lives on them); queries disjoint from that closure keep
        iterating through the repartition.  A partial plan involving every
        worker reproduces global mode event-for-event.  Under
        ``SyncMode.SHARED_BSP`` a superstep's participant set is every
        worker and every running query, so a STOP is taken at the
        superstep barrier and ``"partial"`` degrades to global behaviour
        there; the queries START restores or admits join its next superstep.
    vertex_state_bytes:
        Bytes transferred per vertex during repartitioning moves.
    max_events:
        Runaway-simulation budget: a run that processes more events raises
        an :class:`EngineError` whose message carries a diagnostic snapshot
        of the engine state (queue length, running/paused queries, barrier
        waits) so livelocks are debuggable from the exception alone.
    checkpoint_interval:
        Barrier-aligned checkpointing period in iterations (``0`` disables
        it).  Every running query snapshots its complete logical state at
        each barrier whose (post-rotate) iteration number is a multiple of
        the interval; crash recovery rolls queries back to their latest
        snapshot; a crash-tainted query waits at its barrier for the rollback.
        Required (> 0) when a :class:`FaultPlan` schedules worker crashes.
    sanitizer:
        Runtime invariant checking (see :mod:`repro.engine.sanitizer`):
        ``True`` weaves epoch-guarded conservation/monotonicity/liveness
        checks through the engine, raising structured
        :class:`~repro.engine.sanitizer.SanitizerError` on the first
        violation.  ``None`` (default) defers to the ``REPRO_SANITIZER``
        environment variable, which is how CI sanitizes the whole tier-1
        suite without touching test code.

    The fault-tolerance and barrier costs are module constants
    (``CHECKPOINT_COST``, ``HEARTBEAT_*``, ``CONTROL_*``,
    ``LOCAL_BARRIER_COST``).
    """

    sync_mode: SyncMode = SyncMode.HYBRID
    max_parallel_queries: int = 16
    scheduler: Union[str, Scheduler] = "fifo"
    adaptive: bool = True
    repartition_mode: str = "global"
    vertex_state_bytes: int = 48
    max_events: int = 50_000_000
    checkpoint_interval: int = 0
    sanitizer: Optional[bool] = None


class QGraphEngine:
    """Controller + workers + event loop over a partitioned graph."""

    def __init__(
        self,
        graph: DiGraph,
        cluster: ClusterSpec,
        assignment: np.ndarray,
        controller: Optional[Controller] = None,
        config: Optional[EngineConfig] = None,
        trace: Optional[MetricsTrace] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        assignment = np.asarray(assignment, dtype=np.int64)
        if assignment.shape != (graph.num_vertices,):
            raise EngineError("assignment shape does not match graph")
        if assignment.size and assignment.max() >= cluster.num_workers:
            raise EngineError("assignment references worker beyond cluster size")
        self.graph = graph
        self.cluster = cluster
        self.assignment = assignment.copy()
        self.config = config or EngineConfig()
        if self.config.repartition_mode not in ("global", "partial"):
            raise EngineError(
                f"unknown repartition mode {self.config.repartition_mode!r}; "
                "pick 'global' or 'partial'"
            )
        self.controller = controller or Controller(cluster.num_workers)
        if self.controller.k != cluster.num_workers:
            raise EngineError("controller worker count != cluster worker count")
        self.trace = trace or MetricsTrace()
        self.queue = EventQueue()
        #: event kind -> handler: the one dispatch table, bound through ``self``
        self._handlers: Dict[str, Callable[..., None]] = {
            "arrival": self._on_arrival,
            "task_ready": self._on_task_ready,
            "compute_done": self._on_compute_done,
            "barrier_ack": self._on_barrier_ack,
            "ack_task_ready": self._on_ack_task_ready,
            "graph_update": self._on_graph_update,
            "superstep_release": self._on_superstep_release,
            "qcut_done": self._on_qcut_done,
            "global_stop": self._on_global_stop,
            "global_start": self._on_global_start,
            "worker_crash": self._on_worker_crash,
            "worker_recover": self._on_worker_recover,
            "controller_crash": self._on_controller_crash,
            "controller_recover": self._on_controller_recover,
            "heartbeat": self._on_heartbeat,
        }
        self.workers = [
            SimWorker(w, cluster.machine) for w in range(cluster.num_workers)
        ]
        #: ``_links[src][dst]``: the cluster's link table, resolved once
        #: (the cluster never changes; compute charging reads it per task)
        self._links = [
            [cluster.link(src, dst) for dst in range(cluster.num_workers)]
            for src in range(cluster.num_workers)
        ]
        #: ``_send_costs[src][dst]``: ``count -> NetworkModel.send_cost(count)``
        #: of that link, filled as counts occur (one memo per link model, so
        #: the cells a model serves share it)
        memos: Dict[NetworkModel, Dict[int, Tuple[float, int, float]]] = {}
        self._send_costs = [
            [memos.setdefault(link, {}) for link in row] for row in self._links
        ]
        #: one-way control-message latency between each worker and the
        #: controller (acks, releases, redirects), resolved once likewise
        self._ctrl_latencies = [
            cluster.controller_link(w).control_latency
            for w in range(cluster.num_workers)
        ]
        #: controller CPU seconds per dispatch or handled ack message
        self._dispatch_time = cluster.machine.controller_dispatch_time
        self.runtimes: Dict[int, QueryRuntime] = {}
        #: every query id ever submitted (duplicate detection, including
        #: queries still waiting in the admission queue)
        self._submitted: Set[int] = set()
        #: admission queue policy (holds arrived-but-not-started queries)
        self.scheduler: Scheduler = make_scheduler(
            self.config.scheduler, self.assignment
        )
        self.running: Set[int] = set()
        # --- repartitioning state ---
        self.paused = False
        self._stop_scheduled = False
        self._held_resolutions: List[int] = []
        self._held_tasks: List[Tuple[int, int]] = []
        #: tasks of *non-halted* queries that landed on a halted worker
        #: during a partial STOP — re-fired verbatim at START (partial mode
        #: only; stage B's state reset would be wrong for these queries,
        #: which may still have computes in flight on live workers)
        self._held_other_tasks: List[Tuple[int, int]] = []
        self._pending_plan: Optional[MovePlan] = None
        #: the scope of the active STOP: the workers and the queries it
        #: halts (every worker and every running query for a global STOP;
        #: both empty when no STOP is in progress)
        self._stop_workers: Set[int] = set()
        self._stop_queries: Set[int] = set()
        self._qcut_trigger_time = 0.0
        self._stop_begin_time = 0.0
        #: graph deltas that arrived while a STOP (or a shared-BSP
        #: superstep) was in progress — applied at the next safe boundary
        self._held_updates: List[GraphDelta] = []
        #: ``SHARED_BSP``: the queries of the superstep held from its dispatch
        #: until its release, and its tasks not settled yet (non-zero while
        #: it computes)
        self._superstep_participants: Set[int] = set()
        self._superstep_outstanding = 0
        #: ``SHARED_BSP``: the instant of the last ``superstep_release``
        #: queued and not yet fired (``None`` when none is)
        self._superstep_release_at: Optional[float] = None
        self._events_processed = 0
        # --- fault-tolerance state (inert on fault-free runs) ---
        #: the active fault plan; ``None`` when the run is fault-free (a
        #: no-op plan is normalized to ``None`` so it is event-for-event
        #: identical to not passing one)
        self.faults: Optional[FaultPlan] = None
        self._fault_rng: Optional[np.random.Generator] = None
        #: workers currently crashed (crash-stop: no compute, no acks)
        self._dead_workers: Set[int] = set()
        #: crashed workers the heartbeat sweep has not yet declared dead
        self._undetected_crashes: Dict[int, float] = {}
        #: scheduled ``worker_crash`` events that have not fired yet (keeps
        #: the heartbeat chain alive until the last crash has been handled)
        self._pending_crash_events = 0
        self._controller_down = False
        #: detected crashes awaiting a recovery barrier:
        #: (worker, crash_time, detection_time)
        self._recovering: List[Tuple[int, float, float]] = []
        #: the STOP in progress is a crash-recovery barrier, not a
        #: repartition
        self._recovery_active = False
        #: queries restored by the recovery in progress, re-dispatched at
        #: the START that follows it (stage R)
        self._restored_queries: List[int] = []
        #: queries whose current iteration lost results to a crash; frozen
        #: until a recovery rolls them back (finishing one is a protocol bug)
        self._tainted_queries: Set[int] = set()
        if self.config.checkpoint_interval < 0:
            raise EngineError("checkpoint_interval must be >= 0")
        if faults is not None and not faults.is_noop():
            faults.validate_for(cluster.num_workers)
            if faults.has_crashes() and self.config.checkpoint_interval <= 0:
                raise EngineError(
                    "fault plan schedules worker crashes but checkpointing "
                    "is disabled — set EngineConfig.checkpoint_interval > 0"
                )
            self.faults = faults
            self._fault_rng = faults.make_rng()
            for crash in faults.crashes:
                self.queue.schedule(
                    crash.time,
                    "worker_crash",
                    worker=crash.worker,
                    downtime=crash.downtime,
                )
            for crash in faults.controller_crashes:
                self.queue.schedule(
                    crash.time, "controller_crash", downtime=crash.downtime
                )
            self._pending_crash_events = len(faults.crashes)
            if faults.has_crashes():
                self.queue.schedule(HEARTBEAT_INTERVAL, "heartbeat")
        #: runtime invariant checker (None -> disabled, the default)
        self.sanitizer: Optional[SimulationSanitizer] = (
            SimulationSanitizer(self)
            if sanitizer_enabled(self.config.sanitizer)
            else None
        )

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def submit(self, query: Query, arrival_time: float = 0.0) -> None:
        """``scheduleQuery(q)`` — enqueue a query arrival.

        Duplicate ids are rejected against every id ever submitted — also
        queued-but-unstarted ones, which have no runtime yet and would
        otherwise silently overwrite each other's runtime in
        ``_start_query``.
        """
        if query.query_id in self._submitted:
            raise EngineError(f"duplicate query id {query.query_id}")
        self._submitted.add(query.query_id)
        self.queue.schedule(arrival_time, "arrival", query=query)

    def submit_update(self, delta: GraphDelta, time: float = 0.0) -> None:
        """Enqueue a topology mutation (graph-stream churn event).

        The delta is applied at the next safe boundary after ``time``:
        immediately between compute tasks in the per-query barrier modes,
        at the superstep barrier under ``SHARED_BSP``, and after START when
        a STOP/START repartition is in progress.  Requires the engine to
        run on a :class:`~repro.graph.delta.MutableDiGraph`.
        """
        if not isinstance(self.graph, MutableDiGraph):
            raise EngineError(
                "graph updates require a MutableDiGraph "
                "(wrap the graph with MutableDiGraph.from_digraph)"
            )
        self.queue.schedule(time, "graph_update", delta=delta)

    def run(self, until: Optional[float] = None) -> MetricsTrace:
        """Process events until quiescence (or virtual time ``until``).

        The horizon is checked by *peeking*: an event past ``until`` stays
        in the queue, so a later ``run()`` resumes exactly where this one
        stopped (popping it would silently drop that event).
        """
        handlers = self._handlers
        queue = self.queue
        max_events = self.config.max_events
        while True:
            if until is not None:
                next_time = queue.peek_time()
                if next_time is None or next_time > until:
                    break
            event = queue.pop()
            if event is None:
                break
            self._events_processed += 1
            if self._events_processed > max_events:
                raise EngineError(
                    f"event budget exhausted after {max_events} "
                    "events — runaway simulation? "
                    f"[{self._budget_diagnostics()}]"
                )
            time, _seq, kind, payload = event
            handler = handlers.get(kind)
            if handler is None:
                raise EngineError(f"no handler for event kind {kind!r}")
            handler(time, **payload)
        return self.trace

    @property
    def now(self) -> float:
        return self.queue.now

    def query_result(self, query_id: int) -> Any:
        """Answer of a finished query."""
        qr = self.runtimes.get(query_id)
        if qr is None:
            raise EngineError(f"unknown query {query_id}")
        return qr.snapshot_result(self.graph)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _budget_diagnostics(self) -> str:
        """One-line engine-state snapshot for the runaway-budget error."""
        parts = [
            f"t={self.now:.6f}",
            f"queue_len={len(self.queue)}",
            f"running={len(self.running)}",
            f"admission_queue={len(self.scheduler.pending_queries())}",
            f"outstanding_computes={self._inflight_computes()}",
            f"paused={self.paused}",
            f"held_tasks={len(self._held_tasks)}",
            f"held_resolutions={len(self._held_resolutions)}",
        ]
        if self._dead_workers:
            parts.append(f"dead_workers={sorted(self._dead_workers)}")
        if self._tainted_queries:
            parts.append(f"tainted_queries={sorted(self._tainted_queries)}")
        for query_id in sorted(self.running)[:4]:
            qr = self.runtimes[query_id]
            waiting = sorted(self._required_ackers(qr) - qr.acked)
            parts.append(
                f"q{query_id}(it={qr.iteration}, epoch={qr.barrier_epoch}, "
                f"waiting_on={waiting})"
            )
        return ", ".join(parts)

    def _control_delay(self) -> float:
        """Extra latency a control message pays to fault-injected loss.

        Draws from the fault RNG only when a plan with ``control_loss`` is
        active; each lost transmission costs one retry timeout (exponential
        backoff), and the final attempt always lands — control loss delays
        barriers, it never strands them.
        """
        faults = self.faults
        rng = self._fault_rng
        if faults is None or rng is None or faults.control_loss <= 0.0:
            return 0.0
        delay = 0.0
        timeout = CONTROL_RETRY_TIMEOUT
        for _attempt in range(CONTROL_MAX_RETRIES):
            if rng.random() >= faults.control_loss:
                break
            self.trace.control_retries += 1
            delay += timeout
            timeout *= CONTROL_RETRY_BACKOFF
        return delay

    def _faulty_transfer(
        self, link: NetworkModel, count: int, arrival: float
    ) -> float:
        """Arrival time of a vertex-message batch train under the plan's
        message faults.

        Reliable transport: a dropped batch is retransmitted after one
        link round-trip plus its transfer time (content is never lost, so
        data-plane answers stay bit-identical); a duplicated batch costs
        wire time and a receiver-side discard, nothing else.
        """
        faults = self.faults
        rng = self._fault_rng
        if faults is None or rng is None:  # caller gates on self.faults
            return arrival
        p_drop = faults.message_drop
        p_dup = faults.message_duplicate
        if p_drop <= 0.0 and p_dup <= 0.0:
            return arrival
        batches = link.num_batches(count)
        per_batch = -(-count // batches) if batches else count
        for _batch in range(batches):
            if p_drop > 0.0:
                while rng.random() < p_drop:
                    self.trace.dropped_batches += 1
                    arrival += link.retransmit_delay(per_batch)
            if p_dup > 0.0 and rng.random() < p_dup:
                self.trace.duplicated_batches += 1
                self.trace.remote_batches += 1
                arrival += link.transfer_time(0)
        return arrival

    def _close_iteration(self, qr: QueryRuntime, now: float) -> None:
        """Close ``qr``'s iteration at its barrier: commit the aggregators,
        then count and report the workers that computed it.

        The count includes workers that computed pre-STOP parts of an
        interrupted iteration, so STOP/START does not misclassify
        multi-worker iterations as local in the trace and controller
        statistics.  The stats report goes to the controller unless faults
        eat it: a lost report (or a crashed controller) degrades
        adaptivity — the Q-cut planner sees stale statistics — but never
        correctness, since query answers only depend on engine-side state.
        """
        query_id = qr.query.query_id
        self._reduce_aggregators(qr)
        involved = qr.involved
        if qr.prior_participants:
            involved = involved | qr.prior_participants
        involved_count = len(involved)
        activated = qr.take_activated()
        rng = self._fault_rng
        if self.faults is not None and (
            self._controller_down
            or (
                rng is not None
                and self.faults.report_loss > 0.0
                and rng.random() < self.faults.report_loss
            )
        ):
            self.trace.lost_reports += 1
        else:
            self.controller.on_iteration(query_id, involved_count, activated, now)
        self.trace.iteration_executed(query_id, involved_count)

    def _checkpoint_if_due(self, qr: QueryRuntime, now: float) -> None:
        """Periodic checkpoint: snapshot ``qr`` when the iteration its
        barrier just opened is a multiple of ``checkpoint_interval``."""
        if (
            self.config.checkpoint_interval > 0
            and qr.iteration % self.config.checkpoint_interval == 0
        ):
            self._capture_checkpoint(qr, now)

    def _capture_checkpoint(
        self, qr: QueryRuntime, now: float, charge: bool = True
    ) -> None:
        """Snapshot a query at its current barrier (and charge the write).

        Each involved worker pays ``CHECKPOINT_COST`` plus a per-message
        handling cost for its shard; the initial checkpoint taken at query
        start is free (the submission itself materialized that state).
        """
        ck = QueryCheckpoint.capture(qr)
        if self.sanitizer is not None:
            ck.fingerprint = self.sanitizer.checkpoint_fingerprint(qr)
        qr.checkpoint = ck
        self.trace.checkpoints_taken += 1
        if not charge:
            return
        handling = self.cluster.machine.message_handling_time
        for w in sorted(qr.involved):
            box = qr.mailboxes.get(w)
            shard = len(box) if box is not None else 0
            self.workers[w].occupy(
                max(self.workers[w].busy_until, now),
                CHECKPOINT_COST + handling * shard,
            )

    def _partial_repartitioning(self) -> bool:
        """Whether STOP/START barriers run in plan-scoped (partial) mode.

        A shared-BSP superstep's participant set is every live worker and
        every running query, so a plan-scoped STOP has nothing to scope
        there — it degrades to global behaviour.
        """
        return (
            self.config.repartition_mode == "partial"
            and self.config.sync_mode is not SyncMode.SHARED_BSP
        )

    def _query_paused(self, query_id: int) -> bool:
        """Whether this query is halted by the STOP in progress."""
        return self.paused and query_id in self._stop_queries

    def _inflight_computes(self) -> int:
        """Computes whose ``compute_done`` has not fired yet, cluster-wide."""
        return sum(
            sum(self.runtimes[query_id].inflight.values())
            for query_id in self.running
        )

    def _query_footprint(self, query_id: int) -> Set[int]:
        """Workers currently holding state of a running query: mailbox
        owners (both generations), the current iteration's participants,
        and workers with a compute in flight."""
        qr = self.runtimes[query_id]
        footprint = set(qr.mailboxes) | set(qr.next_mailboxes) | qr.involved
        footprint.update(qr.inflight)
        return footprint

    def _pause(self, now: float, workers: Set[int], queries: Set[int]) -> None:
        """Open a STOP that halts ``workers`` and ``queries``; its barrier
        begins once their in-flight computes have drained."""
        self.paused = True
        self._stop_scheduled = False
        self._stop_begin_time = now
        self._stop_workers = workers
        self._stop_queries = queries
        self._maybe_begin_stop(now)

    def _dispatch_tasks(
        self, now: float, query_id: int, workers: Set[int], inbox_ready: Dict[int, float] = _NO_INBOX
    ) -> None:
        """The controller forwards executeQuery(q) to ``workers``: each task
        is ready once the message crossed that worker's controller link and
        its inbox for the iteration is complete (``inbox_ready``)."""
        for w in sorted(workers):
            self.queue.schedule(
                max(now + self._ctrl_latencies[w], inbox_ready.get(w, 0.0)),
                "task_ready",
                query_id=query_id,
                worker=w,
            )

    def _redundant_acks(
        self, now: float, qr: QueryRuntime, *skips: AbstractSet[int]
    ) -> None:
        """Seraph-style global barrier: under ``GLOBAL_PER_QUERY`` every
        worker in none of ``skips`` acks ``qr``'s current barrier
        generation, involved or not."""
        if self.config.sync_mode is not SyncMode.GLOBAL_PER_QUERY:
            return
        for w in range(self.cluster.num_workers):
            if not any(w in skip for skip in skips):
                self.queue.schedule(
                    now + self._ctrl_latencies[w],
                    "ack_task_ready",
                    query_id=qr.query.query_id,
                    worker=w,
                    epoch=qr.barrier_epoch,
                )

    def _release_iteration(self, now: float, qr: QueryRuntime) -> None:
        """One controller dispatch releases ``qr``'s iteration to its
        involved workers, as at a query start; under ``GLOBAL_PER_QUERY``
        the first barrier already spans every live worker.  Under
        ``SHARED_BSP`` it joins the next superstep, which every query started
        at ``now`` shares."""
        if self.config.sync_mode is SyncMode.SHARED_BSP:
            if not self._superstep_participants:
                self._schedule_superstep_release(now)
            return
        dispatched = now + self._dispatch_time
        self._dispatch_tasks(dispatched, qr.query.query_id, qr.involved)
        self._redundant_acks(dispatched, qr, qr.involved, self._dead_workers)

    def _send_barrier_ack(
        self, now: float, query_id: int, worker: int, epoch: int
    ) -> None:
        """``worker`` acks barrier generation ``epoch`` of ``query_id`` to
        the controller at ``now``; control loss can delay the ack."""
        self.trace.barrier_acks += 1
        delay = 0.0 if self.faults is None else self._control_delay()
        self.queue.schedule(
            now + self._ctrl_latencies[worker] + delay,
            "barrier_ack",
            query_id=query_id,
            worker=worker,
            epoch=epoch,
        )

    def _cluster_scope(self) -> Tuple[Set[int], Set[int]]:
        """The (halted workers, halted queries) of a global repartition or
        recovery STOP: every worker and every running query."""
        return set(range(self.cluster.num_workers)), set(self.running)

    def _plan_scope(self, plan: MovePlan) -> Tuple[Set[int], Set[int]]:
        """The (halted workers, halted queries) of a partial STOP.

        The plan's involved workers (move sources/destinations) seed the
        halt; a running query whose footprint touches them is halted too —
        every message addressed to a to-be-moved vertex sits on that
        vertex's pre-move owner (a move source), so this catches every
        query whose mailboxes the migration re-homes.  The halted workers
        are then widened once with the halted queries' footprints (the
        workers that must pause those queries' work and ack the STOP);
        queries that only share a worker with a halted *query* — not with
        the plan itself — keep iterating, any task they send to a halted
        worker is simply parked until START.
        """
        workers: Set[int] = set(plan.involved_workers)
        for move in plan.moves:
            workers.add(move.src)
            workers.add(move.dst)
        queries: Set[int] = set()
        widened: Set[int] = set(workers)
        for query_id in sorted(self.running):
            footprint = self._query_footprint(query_id)
            if footprint & workers:
                queries.add(query_id)
                widened |= footprint
        return widened, queries

    # ------------------------------------------------------------------
    # event: query arrival / admission
    # ------------------------------------------------------------------
    def _on_arrival(self, now: float, query: Query) -> None:
        if self.paused or len(self.running) >= self.config.max_parallel_queries:
            self.scheduler.add(query)
            return
        self._start_query(query, now)

    def _admit_pending(self, now: float) -> None:
        while (
            self.scheduler
            and not self.paused
            and len(self.running) < self.config.max_parallel_queries
        ):
            self._start_query(self.scheduler.pop(), now)

    def _start_query(self, query: Query, now: float) -> None:
        qr = QueryRuntime(query, self.graph)
        self.runtimes[query.query_id] = qr
        self.running.add(query.query_id)
        self.scheduler.on_query_started(query)
        self.controller.on_query_started(query.query_id, now)
        self.trace.query_started(query.query_id, query.kind, now, query.phase)

        qr.seed_messages(
            query.program.init_messages(self.graph, query.initial_vertices),
            self.assignment,
        )
        qr.rotate_mailboxes()
        qr.involved = set(qr.mailboxes)

        if not qr.involved:  # degenerate: no seed messages
            self._finish_query(query.query_id, now)
            return

        if self.config.checkpoint_interval > 0:
            # iteration-0 baseline: recovery can always roll back to the
            # seeded state even before the first periodic checkpoint
            self._capture_checkpoint(qr, now, charge=False)

        self._release_iteration(now, qr)

    # ------------------------------------------------------------------
    # event: a compute task becomes ready on a worker
    # ------------------------------------------------------------------
    def _on_task_ready(self, now: float, query_id: int, worker: int) -> None:
        if worker in self._dead_workers:
            # crash-stop: the worker process is gone, the dispatch is void.
            # If the dead worker owns this query's unconsumed shard the
            # query is tainted (recovery re-dispatches it from the restored
            # checkpoint); a stale duplicate dispatch loses nothing.
            qr = self.runtimes[query_id]
            if not qr.finished and qr.mailboxes.get(worker):
                self._tainted_queries.add(query_id)
            self._task_settled(now)
            return
        if self.paused and not self._superstep_outstanding:
            # a STOP halts work; a superstep still computing drains first
            if self._query_paused(query_id) or self.runtimes[query_id].finished:
                self._held_tasks.append((query_id, worker))
                self._maybe_begin_stop(now)
                return
            if worker in self._stop_workers:
                # a non-halted query's frontier reached a halted worker
                # mid-STOP: park the task; it resumes (or redirects, if the
                # rebucket re-homed the mailbox) at START
                self._held_other_tasks.append((query_id, worker))
                return
            # disjoint query on a live worker: keeps iterating
        qr = self.runtimes[query_id]
        if qr.finished:
            return
        if worker not in qr.mailboxes:
            # stale dispatch: either a duplicate (this worker already
            # consumed its mailbox — it is in ``computed``) or a
            # repartitioning rebucket moved the mailbox to a different
            # worker between dispatch and execution.  In the latter case the
            # re-homed mailbox needs a task on its current owner — including
            # an owner that already computed and acked (the rebucket merged
            # new messages into its box), which must compute again and is
            # therefore un-acked; duplicates are dropped silently.
            if (
                worker in qr.involved
                and worker not in qr.acked
                and worker not in qr.computed
            ):
                qr.involved.discard(worker)
                in_flight = qr.involved - qr.acked - qr.computed
                redirect = {w for w in qr.mailboxes if w not in in_flight}
                # new barrier generation: redundant acks issued before the
                # repartition (possibly still in flight) must not complete
                # the barrier on behalf of a redirected worker that has yet
                # to recompute; already-arrived acks stay valid.  Bumped
                # before the redirect dispatch below so the re-issued
                # task_ready events are scheduled against the epoch they
                # will run under.
                qr.barrier_epoch += 1
                qr.involved |= redirect
                qr.acked -= redirect
                qr.computed -= redirect
                self._dispatch_tasks(now, query_id, redirect)
                # the bump also invalidated in-flight acks of workers that
                # finished this iteration's compute and are not re-tasked
                # (their mailboxes were consumed, not re-homed).  Nothing
                # would ever ack for them again — re-issue on their behalf
                # so the barrier stays live.  Workers whose compute is
                # still running are skipped: their ack is stamped with the
                # epoch current when compute_done fires, i.e. this one.
                for w in sorted((qr.computed & qr.involved) - qr.acked):
                    if w in qr.inflight:
                        continue
                    self.queue.schedule(
                        now + self._ctrl_latencies[w],
                        "barrier_ack",
                        query_id=query_id,
                        worker=w,
                        epoch=qr.barrier_epoch,
                    )
                # re-issue the redundant acks the epoch bump invalidated
                # (incl. this demoted worker's own)
                self._redundant_acks(now, qr, qr.involved, qr.acked)
                if not redirect and self._required_ackers(qr).issubset(qr.acked):
                    self._resolve_query_barrier(
                        qr, now + self._dispatch_time, local=False
                    )
            return
        # Run coalescing: the tasks a barrier release hands to this query's
        # workers become ready at one timestamp with consecutive sequence
        # numbers, so they sit at the head of the queue back to back.  Pop
        # the followers that would take this same plain path and execute
        # the whole run as one fused kernel pass.  Nothing can run between
        # two members: whatever a member's compute schedules gets a time
        # >= now and a larger sequence number than the next member's event
        # (the queue has no cancellation).  The follower's guard is evaluated
        # before the members ahead of it compute, which is evaluating it
        # after: a compute changes only its own worker's mailbox entry and
        # ``qr.computed``, none of which the guard of another worker reads
        # (``finished`` was checked above and is per query).  A follower
        # that fails the guard — or would exhaust the event budget — ends
        # the run and stays queued for ``run()``: its side effects keep
        # their sequence numbers behind the members' ``compute_done``.
        run = [worker]
        if not self.paused:
            # nothing runs between the pops below: the pause flag, the dead
            # set and the mailbox map stay as read here
            queue = self.queue
            max_events = self.config.max_events
            dead = self._dead_workers
            mailboxes = qr.mailboxes
            while self._events_processed < max_events:
                follower = queue.peek()
                if follower is None:
                    break
                time, _seq, kind, payload = follower
                if kind != "task_ready" or time != now or payload["query_id"] != query_id:
                    break
                w = payload["worker"]
                if w in run or w in dead or w not in mailboxes:
                    break
                queue.pop()
                self._events_processed += 1
                run.append(w)
        self._execute_compute(qr, run, now)

    def _execute_compute(self, qr: QueryRuntime, run: List[int], now: float) -> None:
        """Execute one run (distinct workers of ``qr``, all ready ``now``)
        as one kernel pass, then charge virtual time member by member."""
        query_id = qr.query.query_id
        if self.sanitizer is not None:
            for worker in run:
                self.sanitizer.check_compute_allowed(query_id, worker, now)
        qr.computed.update(run)
        results = SimWorker.execute_iteration(
            self.workers, run, qr, self.graph, self.assignment
        )
        # the cost model's constants, read once per run: a member's base
        # CPU seconds are task overhead + per-vertex + per-edge + per local
        # message + deserializing its remote inbound messages (the factor of
        # ``NetworkModel.deserialize_time``)
        machine = self.cluster.machine
        task_overhead = machine.task_overhead_time
        per_vertex = machine.vertex_compute_time
        per_edge = machine.edge_compute_time
        per_local = machine.message_handling_time
        per_inbound = self.cluster.intra_node.deserialize_per_message
        faults = self.faults
        trace = self.trace
        inbox_ready = qr.inbox_ready
        inflight = qr.inflight
        local_count = remote_count = batch_count = 0
        for worker, (executed, visited, inbound, local, remote) in zip(run, results):
            links = self._links[worker]
            costs = self._send_costs[worker]
            duration = (
                task_overhead
                + per_vertex * executed
                + per_edge * visited
                + per_local * local
                + per_inbound * inbound
            )
            # the member's non-zero remote cells, destination ascending:
            # serialization extends the compute, the wire time is charged
            # from its finish.  The order is the float summation order of
            # ``duration`` and, below, the order ``_faulty_transfer`` draws
            # from the fault RNG in — neither may move
            cell_costs = []
            for dest, count in remote:
                cost = costs[dest].get(count)
                if cost is None:
                    cost = costs[dest][count] = links[dest].send_cost(count)
                duration += cost[0]
                cell_costs.append(cost)
            start, finish = self.workers[worker].occupy(now, duration)
            inflight[worker] = inflight.get(worker, 0) + 1
            if executed:
                trace.vertices_executed(worker, start, executed)
            local_count += local
            for (dest, count), (_serialize, batches, wire) in zip(remote, cell_costs):
                arrival = finish + wire
                if faults is not None:
                    arrival = self._faulty_transfer(links[dest], count, arrival)
                ready = inbox_ready.get(dest)
                if ready is None or arrival > ready:
                    inbox_ready[dest] = arrival
                remote_count += count
                batch_count += batches
            self.queue.schedule(
                finish,
                "compute_done",
                query_id=query_id,
                worker=worker,
                had_remote=bool(remote),
            )
        trace.local_messages += local_count
        trace.remote_messages += remote_count
        trace.remote_batches += batch_count

    # ------------------------------------------------------------------
    # event: compute finished -> barrier protocol
    # ------------------------------------------------------------------
    def _on_compute_done(
        self, now: float, query_id: int, worker: int, had_remote: bool
    ) -> None:
        qr = self.runtimes[query_id]
        qr.inflight[worker] -= 1
        if not qr.inflight[worker]:
            del qr.inflight[worker]

        # the worker's ack goes to its sync mode's release rule: a superstep
        # counts it, a local query barrier resolves on the worker, anything
        # else acks to the controller
        if worker in self._dead_workers:
            # the worker crashed mid-compute: its results (messages already
            # materialized into mailboxes, its barrier ack) died with it.
            # The query is tainted — it must not finish before a recovery
            # rolls it back to the last checkpoint and replays.
            self._tainted_queries.add(query_id)
            self.trace.lost_computes += 1
        elif self._superstep_outstanding:
            qr.acked.add(worker)
        elif (
            self.config.sync_mode is SyncMode.HYBRID
            and len(qr.involved) == 1
            and worker in qr.involved
            and not qr.prior_participants  # interrupted iteration spanned more workers
            and not had_remote
            and not self._query_paused(query_id)
        ):
            # local query barrier: resolve on the worker, no controller trip
            w = self.workers[worker]
            _start, finish = w.occupy(now, LOCAL_BARRIER_COST)
            self._resolve_query_barrier(qr, finish, local=True)
        else:
            self._send_barrier_ack(now, query_id, worker, qr.barrier_epoch)
        self._task_settled(now)

    def _task_settled(self, now: float) -> None:
        """A dispatched task ran or was lost to a crash: the last task of a
        superstep settles it, else a pending STOP re-checks its drain."""
        if self._superstep_outstanding:
            self._superstep_outstanding -= 1
            if not self._superstep_outstanding:
                self._settle_superstep(now)
        elif self.paused:
            self._maybe_begin_stop(now)

    def _on_barrier_ack(
        self, now: float, query_id: int, worker: int, epoch: int
    ) -> None:
        qr = self.runtimes[query_id]
        if qr.finished or query_id in self._held_resolutions:
            return  # a held query's barrier resolved: a late ack is void
        if self.sanitizer is not None:
            self.sanitizer.observe_epoch(query_id, qr.barrier_epoch, now)
        if epoch != qr.barrier_epoch:
            return  # ack from a previous barrier generation (e.g. pre-STOP)
        if self.sanitizer is not None:
            self.sanitizer.observe_ack_accepted(query_id, epoch, now)
        qr.acked.add(worker)
        if self._required_ackers(qr) <= qr.acked:
            # the controller handles each ack message before releasing
            processing = self._dispatch_time * max(len(qr.acked), 1)
            self._resolve_query_barrier(qr, now + processing, local=False)

    def _required_ackers(self, qr: QueryRuntime) -> AbstractSet[int]:
        """The participants whose acks resolve ``qr``'s barrier: its involved
        workers, widened to every worker a crash does not excuse under
        ``GLOBAL_PER_QUERY`` (read-only: the involved set itself otherwise)."""
        if self.config.sync_mode is SyncMode.GLOBAL_PER_QUERY:
            required = set(range(self.cluster.num_workers))
            if self._dead_workers:
                # dead non-involved workers are excused from the redundant
                # ack round; a dead *involved* worker still blocks — the
                # barrier strands until recovery rolls the query back
                required -= self._dead_workers - qr.involved
            return required
        return qr.involved

    # ------------------------------------------------------------------
    # barrier resolution (limited / local / global-per-query)
    # ------------------------------------------------------------------
    def _resolve_query_barrier(self, qr: QueryRuntime, now: float, local: bool) -> None:
        """``qr``'s barrier resolved: close its iteration, then release it."""
        self._close_iteration(qr, now)
        self._release_barrier(qr, now, local)

    def _release_barrier(self, qr: QueryRuntime, now: float, local: bool) -> None:
        """Rotate ``qr`` past its closed iteration: dispatch or finish.  A
        query a STOP halts or a crash froze is held instead, for START to
        release (stage A, or stage R after the rollback)."""
        query_id = qr.query.query_id
        if self._query_paused(query_id) or query_id in self._tainted_queries:
            self._held_resolutions.append(query_id)
            return

        inbox_ready = qr.inbox_ready  # rotate_mailboxes rebinds, not clears
        if not self._advance_iteration(qr, now):
            self._maybe_trigger_adaptation(now)
            return
        next_involved = set(qr.mailboxes)
        qr.open_generation(next_involved)
        qr.prior_participants = set()
        if self.sanitizer is not None:
            self.sanitizer.observe_epoch(query_id, qr.barrier_epoch, now)
        self._checkpoint_if_due(qr, now)

        if local and len(next_involved) == 1:
            # stay in local mode: continue immediately on the same worker
            # (LOCAL_BARRIER_COST was already charged on the worker's
            # CPU clock in _on_compute_done before this resolution)
            only = next(iter(next_involved))
            self.queue.schedule(now, "task_ready", query_id=query_id, worker=only)
        else:
            self.trace.barrier_releases += 1
            # currently-dead workers are excused by _required_ackers
            self._redundant_acks(now, qr, next_involved, self._dead_workers)
            self._dispatch_tasks(now, query_id, next_involved, inbox_ready)
        self._maybe_trigger_adaptation(now)

    def _advance_iteration(self, qr: QueryRuntime, now: float) -> bool:
        """Rotate ``qr``'s mailboxes at its barrier's release: finish it when
        its closed iteration sent nothing (False), else count the next (True)."""
        qr.rotate_mailboxes()
        if not qr.mailboxes:
            # nothing was sent: the rotated-out state is released with the rest
            self._finish_query(qr.query.query_id, now)
            return False
        qr.iteration += 1
        return True

    def _on_ack_task_ready(
        self, now: float, query_id: int, worker: int, epoch: Optional[int] = None
    ) -> None:
        """A non-involved worker processes a (redundant) global barrier ack.

        The ack is tagged with the barrier epoch it was *issued* for; a
        stale ack still in flight across a STOP/START (which bumped the
        epoch and re-issued fresh acks) is dropped instead of being
        re-stamped with the new epoch.

        Deliberately *not* gated on a partial STOP's halted set: barrier
        acks are control-plane traffic, which workers keep serving during
        a STOP exactly as they serve the STOP/START handshake itself (the
        global drain likewise processes in-flight acks).  Only graph
        compute is fenced off halted workers.
        """
        if worker in self._dead_workers:
            return  # crash-stop: a dead worker serves no control traffic
        qr = self.runtimes[query_id]
        if qr.finished:
            return
        if epoch is not None and epoch != qr.barrier_epoch:
            return
        w = self.workers[worker]
        _start, finish = w.occupy(now, self.cluster.machine.barrier_ack_time)
        self._send_barrier_ack(
            finish, query_id, worker, qr.barrier_epoch if epoch is None else epoch
        )

    def _reduce_aggregators(self, qr: QueryRuntime) -> None:
        """Fold every worker's partials into the committed values.  Only a
        worker that contributed has a partial, and it holds only the
        aggregators it contributed to."""
        specs = qr.agg_specs
        committed = qr.agg_committed
        for partials in qr.agg_partials.values():
            for name, partial in partials.items():
                committed[name] = reduce_aggregator(specs[name], committed[name], partial)
        qr.agg_partials.clear()

    def _finish_query(self, query_id: int, now: float) -> None:
        if query_id in self._tainted_queries:
            # a query that lost compute results to a crash must strand at
            # its barrier until recovery rolls it back; finishing instead
            # means the fault protocol leaked a lossy answer
            raise EngineError(
                f"query {query_id} finished with crash-lost results "
                "(tainted by a worker failure but never rolled back)"
            )
        qr = self.runtimes[query_id]
        qr.release()
        if self.sanitizer is not None:
            self.sanitizer.on_query_finished(query_id)
        self.running.discard(query_id)
        self.scheduler.on_query_finished(qr.query)
        self.trace.query_finished(query_id, now)
        self.controller.on_query_finished(query_id, now)
        self._admit_pending(now)

    # ------------------------------------------------------------------
    # event: graph churn (topology mutation)
    # ------------------------------------------------------------------
    def _on_graph_update(self, now: float, delta: GraphDelta) -> None:
        """A churn event from the graph stream reached the controller.

        Mutations are fenced off two windows where applying them would tear
        shared state: a STOP/START repartition (the migration and rebucket
        must run against one consistent topology) and an in-flight shared
        superstep (all of a superstep's computes must see the same CSR).
        In the per-query barrier modes the delta applies right here:
        compute tasks materialise their effects eagerly, so application
        always falls *between* tasks — but not necessarily between
        iterations.  Two workers computing the same iteration of one query
        may straddle the flush and see different topologies; the built-in
        programs are monotone wavefronts, for which that interleaving is
        just another legal message ordering of a streaming system.
        """
        if self.paused or self._superstep_outstanding:
            self._held_updates.append(delta)
            return
        self._apply_graph_update(now, delta)

    def _apply_held_updates(self, now: float) -> None:
        if not self._held_updates:
            return
        held = self._held_updates
        self._held_updates = []
        for delta in held:
            self._apply_graph_update(now, delta)

    def _apply_graph_update(self, now: float, delta: GraphDelta) -> None:
        """Flush one delta into the graph and resize/clean engine state."""
        graph = self.graph
        if not isinstance(graph, MutableDiGraph):
            # survives python -O, unlike the assert it replaces (submit_update
            # already gatekeeps; this guards direct _apply calls)
            raise EngineError(
                "graph update reached an immutable DiGraph — wrap the graph "
                "with MutableDiGraph.from_digraph before submitting deltas"
            )
        if self.sanitizer is not None:
            # catch out-of-band mutations of the cached CSR views before the
            # legitimate flush re-baselines the fingerprint
            self.sanitizer.check_csr_integrity(now)
        result = graph.apply_delta(delta)
        if not result and result.skipped == 0:
            return  # empty delta: nothing to record

        if result.added_vertices:
            # streaming LDG placement for the appended vertices, then grow
            # every dense per-vertex structure (assignment, kernel state)
            new_ids = np.arange(
                result.first_new_vertex, graph.num_vertices, dtype=np.int64
            )
            owners = self.controller.place_new_vertices(
                graph, new_ids, self.assignment
            )
            self.assignment = np.concatenate([self.assignment, owners])
            for query_id in sorted(self.running):
                self.runtimes[query_id].grow(graph.num_vertices)
            # placement-aware admission policies see the grown assignment
            self.scheduler.on_assignment_changed(self.assignment)

        dropped = 0
        if result.removed_vertices:
            dead = graph.dead_mask
            for query_id in sorted(self.running):
                dropped += self.runtimes[query_id].purge_dead_targets(dead)

        # controller hygiene: truncate scope-store entries of dead vertices
        # so Q-cut snapshots never plan moves of dead ids (the controller
        # also filters dead ids out of future activation reports, covering
        # the runtimes' not-yet-reported ``activated`` buffers)
        self.controller.on_graph_mutation(result.removed_vertices)

        self.trace.graph_updated(
            GraphChurnRecord(
                time=now,
                inserted_edges=result.inserted_edges,
                deleted_edges=result.deleted_edges,
                updated_weights=result.updated_weights,
                added_vertices=result.added_vertices,
                removed_vertices=len(result.removed_vertices),
                skipped_mutations=result.skipped,
                dropped_messages=dropped,
            )
        )
        if self.sanitizer is not None:
            # re-baseline the CSR fingerprint at this legitimate flush, then
            # verify every structure that must track it (dense buffers,
            # assignment, controller scope liveness)
            self.sanitizer.on_graph_flush(now)

    # ------------------------------------------------------------------
    # shared-BSP mode: one barrier over every live worker and running query
    # ------------------------------------------------------------------
    def _begin_superstep(self, now: float) -> None:
        """Dispatch a superstep to every running query a crash has not
        frozen, on the workers holding its mailboxes."""
        for query_id in sorted(self.running):
            qr = self.runtimes[query_id]
            if query_id in self._tainted_queries:
                continue  # frozen until recovery rolls it back
            involved = set(qr.mailboxes)
            # every barrier generation is uniquely numbered, superstep
            # seeds included: recovery's stale-ack fencing (and the
            # ack-completeness proof) rely on a re-seeded ack set never
            # sharing an epoch with the generation it replaced
            qr.open_generation(involved)
            qr.prior_participants = set()
            if involved:
                self._superstep_participants.add(query_id)
                self._superstep_outstanding += len(involved)
                self._dispatch_tasks(now, query_id, involved, qr.inbox_ready)

    def _settle_superstep(self, now: float) -> None:
        """The superstep's last task settled: every live worker acks as soon
        as its CPU is free, and the queries advance together at the release.
        They stay held until the release event (or START) fires, so a query
        started in between joins the next superstep."""
        k = self.cluster.num_workers
        release = self._ack_round(now, 0.0, set(range(k))) + self._dispatch_time
        self.trace.barrier_releases += 1
        self.trace.barrier_acks += k - len(self._dead_workers)
        # queries started during the superstep keep their seed mailboxes for
        # the next one
        for query_id in sorted(self._superstep_participants):
            qr = self.runtimes[query_id]
            if query_id in self._tainted_queries:
                # crash mid-superstep: results are incomplete, so the query
                # does not advance — it stays frozen at this iteration until
                # recovery restores its checkpoint
                continue
            self._close_iteration(qr, release)
            if self._advance_iteration(qr, release):
                self._checkpoint_if_due(qr, release)
        if self.paused:
            # the STOP is taken at this barrier; START releases it
            self._maybe_begin_stop(release)
            return
        # churn deltas held during the superstep apply before the next
        # superstep's computes dispatch
        self._apply_held_updates(release)
        self._maybe_trigger_adaptation(release)
        self._schedule_superstep_release(release)

    def _schedule_superstep_release(self, at: float) -> None:
        """Queue the shared barrier's release at ``at`` unless one is queued
        for that instant: the starts of one instant share it, as they share
        the superstep it begins."""
        if at != self._superstep_release_at:
            self._superstep_release_at = at
            self.queue.schedule(at, "superstep_release")

    def _on_superstep_release(self, now: float) -> None:
        """The shared barrier releases: the next superstep begins (stale if
        one began); a STOP holds every running query here until START."""
        if now == self._superstep_release_at:
            self._superstep_release_at = None
        if self._superstep_outstanding:
            return
        if self.paused:
            self._superstep_participants = set(self.running)
            return
        self._superstep_participants = set()
        self._begin_superstep(now)

    # ------------------------------------------------------------------
    # adaptation: async Q-cut + global STOP/START barrier (§3.4)
    # ------------------------------------------------------------------
    def _maybe_trigger_adaptation(self, now: float) -> None:
        if not self.config.adaptive or self.paused or self._controller_down:
            # a crashed controller degrades gracefully to the static
            # fallback: workers keep executing, adaptivity resumes at the
            # first barrier after the controller recovers
            return
        if self.controller.should_trigger_qcut(now, self.assignment):
            # a full admission round waiting: only then may the plan trade
            # locality for balance (Controller._plan)
            saturated = len(self.scheduler) >= self.config.max_parallel_queries
            duration = self.controller.begin_qcut(
                self.assignment, now, saturated=saturated
            )
            self._qcut_trigger_time = now
            self.queue.schedule(now + duration, "qcut_done")

    def _on_qcut_done(self, now: float) -> None:
        plan = self.controller.complete_qcut(now)
        if not plan:
            return
        if self._controller_down or self.paused:
            # the planning controller crashed mid-Q-cut, or a crash-recovery
            # barrier took the pause in the meantime: discard the plan (the
            # post-recovery Q-cut replans against fresh state)
            return
        self._pending_plan = plan
        if self._partial_repartitioning():
            workers, queries = self._plan_scope(plan)
        else:
            workers, queries = self._cluster_scope()
        self._pause(now, workers, queries)

    def _maybe_begin_stop(self, now: float) -> None:
        if not self.paused or self._stop_scheduled:
            return
        if self._superstep_outstanding:
            # shared-BSP: the STOP aligns with the superstep barrier.  A
            # computing superstep settles first (its tasks may not even
            # have started — the in-flight maps cannot see dispatched
            # ``task_ready`` events); ``_settle_superstep`` re-calls us.
            return
        # drain the halted queries' computes (wherever they run — stage B's
        # barrier reset at START must not race an in-flight ack) and any
        # compute on a halted worker; everyone else keeps running
        for query_id in sorted(self.running):
            inflight = self.runtimes[query_id].inflight
            if inflight and (
                query_id in self._stop_queries
                or not self._stop_workers.isdisjoint(inflight)
            ):
                return
        self._stop_scheduled = True
        # STOP barrier: the halted workers ack the halt
        self.queue.schedule(self._ack_round(now, now, self._stop_workers), "global_stop")

    def _ack_round(self, now: float, ready: float, workers: AbstractSet[int]) -> float:
        """Every live worker in ``workers`` acks a cluster barrier once its
        CPU is free from ``ready`` on; returns when the last ack reached the
        controller (``now`` at the earliest).  Loops over the worker objects
        so their ``occupy`` writes stay visible to the effect analysis."""
        done = now
        for w in self.workers:
            if w.wid in workers and w.wid not in self._dead_workers:
                _s, finish = w.occupy(ready, self.cluster.machine.barrier_ack_time)
                done = max(done, finish + self._ctrl_latencies[w.wid])
        return done

    def _on_global_stop(self, now: float) -> None:
        if self._recovery_active:
            # this STOP is a crash-recovery barrier: the cluster is drained,
            # run the rollback instead of a repartition
            self._do_recovery(now)
            return
        plan = self._pending_plan
        self._pending_plan = None
        if plan is None:  # survives python -O, unlike the assert it replaces
            raise EngineError(
                "STOP barrier completed with no pending move plan — "
                "repartition protocol state is corrupt"
            )
        if self.sanitizer is not None:
            # the migration reads the CSR: verify nothing mutated the cached
            # views since the last legitimate flush, then fingerprint every
            # mailbox so the rebucket below can prove it lost nothing
            self.sanitizer.check_csr_integrity(now)
            mailbox_snapshot = self.sanitizer.snapshot_mailboxes()
        moved_total = 0
        # migration cost is contention-aware: payloads serialize within a
        # directed link, so two moves sharing (src, dst) are charged the
        # combined transfer, and the stall is the max over links (links
        # transfer concurrently)
        link_payloads: Dict[Tuple[int, int], int] = {}
        for move in plan.moves:
            if move.src in self._dead_workers or move.dst in self._dead_workers:
                # belt and braces with the controller-side filter: a crashed
                # worker can neither ship nor receive migration state
                continue
            mask = self.assignment[move.vertices] == move.src
            vertices = move.vertices[mask]
            if vertices.size == 0:
                continue
            self.assignment[vertices] = move.dst
            moved_total += int(vertices.size)
            key = (move.src, move.dst)
            link_payloads[key] = (
                link_payloads.get(key, 0)
                + int(vertices.size) * self.config.vertex_state_bytes
            )
        duration = 0.0
        for (src, dst), payload in link_payloads.items():
            link = self.cluster.link(src, dst)
            duration = max(duration, link.latency + payload / link.bandwidth)
        for query_id in sorted(self.running):
            self.runtimes[query_id].rebucket(
                self.assignment, workers=self._stop_workers
            )
        if self.sanitizer is not None:
            self.sanitizer.check_rebucket(mailbox_snapshot, self.assignment, now)
        self.trace.repartitioned(
            RepartitionRecord(
                time=now,
                moved_vertices=moved_total,
                num_moves=len(plan.moves),
                barrier_duration=(now + duration) - self._qcut_trigger_time,
                cost_before=plan.cost_before,
                cost_after=plan.cost_after,
                involved_workers=tuple(sorted(self._stop_workers)),
                stall_duration=(now + duration) - self._stop_begin_time,
            )
        )
        self.queue.schedule(now + duration, "global_start")

    def _on_global_start(self, now: float) -> None:
        self.paused = False
        self._stop_scheduled = False
        self._stop_workers = set()
        self._stop_queries = set()
        # placement-aware admission policies re-bucket their pending queries
        # against the post-repartition assignment before anything is admitted
        self.scheduler.on_assignment_changed(self.assignment)
        # churn deltas held during the STOP apply now, against the migrated
        # assignment, before any held resolution or task resumes
        self._apply_held_updates(now)
        held_res = list(dict.fromkeys(self._held_resolutions))
        self._held_resolutions.clear()
        held_tasks = list(dict.fromkeys(self._held_tasks))
        self._held_tasks.clear()
        held_other = list(dict.fromkeys(self._held_other_tasks))
        self._held_other_tasks.clear()
        #: stage R — queries a recovery rolled back to their checkpoint
        restored = self._restored_queries
        self._restored_queries = []

        if self._superstep_participants:
            # START releases the superstep barrier the STOP was taken at;
            # restored and admitted queries join the superstep it begins
            self._schedule_superstep_release(now)

        # stage A: queries held at a resolved barrier (iteration closed)
        for query_id in held_res:
            qr = self.runtimes[query_id]
            if qr.finished:
                continue
            self._release_barrier(qr, now, local=False)

        # stage B: released queries whose compute dispatch was deferred.
        # Only the post-rebucket mailbox owners participate in the resumed
        # iteration: pre-STOP acks are dropped (a worker in ``acked`` but
        # not among the owners never computes again, so carrying them over
        # would let the barrier resolve early or count phantom participants).
        seen: Set[int] = set(held_res)
        for query_id in dict.fromkeys(qid for qid, _w in held_tasks):
            if query_id in seen:
                continue
            seen.add(query_id)
            qr = self.runtimes[query_id]
            if qr.finished:
                continue
            owners = set(qr.mailboxes)
            # remember who already computed part of this iteration (for the
            # iteration statistics) before dropping their stale acks
            qr.prior_participants |= ((qr.acked & qr.involved) | qr.computed) - owners
            qr.open_generation(owners)
            if not owners:
                # every compute of the interrupted iteration already ran;
                # its resolution is all that is left
                self._resolve_query_barrier(qr, now, local=False)
                continue
            self._dispatch_tasks(now, query_id, owners)
            # re-issue the redundant all-worker acks for the new epoch
            self._redundant_acks(now + self._dispatch_time, qr, owners)

        # stage C (partial mode): tasks of queries that kept iterating but
        # whose frontier reached a halted worker.  Those queries were never
        # quiesced, so no barrier-state reset — the parked dispatch simply
        # resumes; if the rebucket re-homed its mailbox, the stale-dispatch
        # redirect in _on_task_ready re-tasks the current owners.
        for query_id, w in held_other:
            qr = self.runtimes[query_id]
            if qr.finished:
                continue
            self._dispatch_tasks(now, query_id, {w})

        # stage R (crash recovery): restored queries resume from their
        # checkpoint — a fresh dispatch to the post-rollback mailbox owners,
        # exactly like a query start (the restore already re-homed the
        # mailboxes and fenced stale traffic with an epoch bump)
        for query_id in restored:
            qr = self.runtimes[query_id]
            if qr.finished:
                continue
            self._release_iteration(now, qr)
        self._admit_pending(now)
        if self._recovering:
            # a crash detected while this barrier was in flight could not
            # take the pause; start its recovery now that START released it
            self._maybe_schedule_recovery(now)

    # ------------------------------------------------------------------
    # fault tolerance: crash events, detection, recovery barrier
    # ------------------------------------------------------------------
    def _on_worker_crash(
        self, now: float, worker: int, downtime: Optional[float]
    ) -> None:
        """Crash-stop failure: the worker loses all volatile state.

        Everything it holds — mailbox shards, in-flight compute results,
        unsent barrier acks — is gone; queries whose footprint touches it
        are tainted (frozen) until a recovery barrier rolls them back to
        their last checkpoint.  Detection is *not* immediate: the
        controller only learns of the crash at a heartbeat sweep after
        ``HEARTBEAT_TIMEOUT`` of silence.
        """
        self._pending_crash_events -= 1
        if worker in self._dead_workers:
            return  # crashed while already down: nothing further to lose
        self._dead_workers.add(worker)
        self._undetected_crashes[worker] = now
        self.trace.worker_crashes += 1
        self.controller.set_down_workers(frozenset(self._dead_workers))
        # taint exactly the queries that lost state with this worker: an
        # unconsumed current-generation mailbox shard, a next-generation
        # shard, or a compute whose results now die in flight.  A worker
        # that already computed *and sent* its barrier ack loses nothing
        # (the ack is on the wire; crash-stop cannot retract it), so
        # queries merely *involving* the worker are not tainted.
        for query_id in sorted(self.running):
            qr = self.runtimes[query_id]
            lost_compute = worker in qr.inflight
            lost_current = bool(qr.mailboxes.get(worker)) and worker not in qr.computed
            lost_next = bool(qr.next_mailboxes.get(worker))
            if lost_compute or lost_current or lost_next:
                self._tainted_queries.add(query_id)
        if downtime is not None:
            self.queue.schedule(now + downtime, "worker_recover", worker=worker)

    def _on_worker_recover(self, now: float, worker: int) -> None:
        """The crashed worker rejoins with a fresh (empty) process.

        Its pre-crash state is *not* back — the recovery barrier (already
        detected or still pending in ``_undetected_crashes``) restores the
        affected queries from checkpoints; rejoining only makes the worker
        schedulable again.
        """
        if worker not in self._dead_workers:
            return
        self._dead_workers.discard(worker)
        self.trace.worker_recoveries += 1
        # fresh process: the old CPU reservation died with it
        self.workers[worker].busy_until = now
        self.controller.set_down_workers(frozenset(self._dead_workers))
        # rejoin the redundant ack round (``GLOBAL_PER_QUERY``'s participants
        # beyond the involved workers) of every barrier in flight it was
        # excused from; the ack is stamped with the epoch current when it
        # fires, so post-rollback epochs drop stale rejoins
        for query_id in sorted(self.running):
            qr = self.runtimes[query_id]
            if worker in qr.involved or worker not in self._required_ackers(qr):
                continue
            self.queue.schedule(
                now + self._ctrl_latencies[worker],
                "ack_task_ready",
                query_id=query_id,
                worker=worker,
            )

    def _on_controller_crash(
        self, now: float, downtime: Optional[float]
    ) -> None:
        """The controller crashes: adaptivity stops, execution does not.

        Workers keep executing under the current (static) assignment;
        barrier bookkeeping is engine state, so queries keep completing.
        Stats reports sent while the controller is down are lost.
        """
        if self._controller_down:
            return
        self._controller_down = True
        self.trace.controller_crashes += 1
        if downtime is not None:
            self.queue.schedule(now + downtime, "controller_recover")

    def _on_controller_recover(self, now: float) -> None:
        """Adaptivity resumes at the first barrier after this point."""
        self._controller_down = False

    def _on_heartbeat(self, now: float) -> None:
        """Periodic crash-detection sweep (only active with crash plans).

        A crashed worker is declared dead once silent for
        ``HEARTBEAT_TIMEOUT``; detected crashes queue a recovery barrier.
        The sweep reschedules itself only while crashes are pending,
        undetected, or awaiting recovery, so the event queue still
        quiesces.
        """
        detected = False
        for worker, crash_time in sorted(self._undetected_crashes.items()):
            if now - crash_time >= HEARTBEAT_TIMEOUT:
                del self._undetected_crashes[worker]
                self._recovering.append((worker, crash_time, now))
                detected = True
        if detected or self._recovering:
            self._maybe_schedule_recovery(now)
        if (
            self._pending_crash_events > 0
            or self._undetected_crashes
            or self._recovering
        ):
            self.queue.schedule(now + HEARTBEAT_INTERVAL, "heartbeat")

    def _maybe_schedule_recovery(self, now: float) -> None:
        """Begin the recovery STOP once no other barrier owns the pause.

        Reuses the STOP/START drain machinery: the cluster drains exactly
        like a global repartition STOP, then ``_on_global_stop`` routes to
        :meth:`_do_recovery` instead of a migration.
        """
        if not self._recovering or self.paused:
            return
        self._recovery_active = True
        workers, queries = self._cluster_scope()
        self._pause(now, workers, queries)

    def _do_recovery(self, now: float) -> None:
        """Rollback at a drained recovery barrier (Pregel-style, §4.2 of
        Malewicz et al.): re-home the dead workers' partitions onto the
        survivors, restore *every* running query from its latest
        checkpoint, and re-dispatch at the START that follows.

        Classic (non-confined) recovery on purpose: all running queries
        roll back, not just the tainted ones, because barrier-aligned
        checkpoints of different queries are cut at different virtual
        times and only a full rollback puts the whole engine on one
        consistent cut.  Confined recovery is a ROADMAP item.
        """
        handled = self._recovering
        self._recovering = []
        self._recovery_active = False
        k = self.cluster.num_workers
        # workers still down now — one that already rejoined keeps its
        # (empty) partitions and receives restored state like any survivor
        dead_now = sorted(
            {w for w, _crash, _detect in handled if w in self._dead_workers}
        )
        # validate the whole restore set BEFORE mutating anything: raising
        # mid-rollback after the assignment was re-homed would leave
        # mailboxes bucketed for owners the assignment no longer names —
        # exactly the partial state the atomic-mutation contract on
        # STATE_INVARIANT_GROUPS forbids
        checkpoints: Dict[int, QueryCheckpoint] = {}
        for query_id in sorted(self.running):
            ck = self.runtimes[query_id].checkpoint
            if ck is None:
                # _start_query always captures a baseline
                raise EngineError(
                    f"running query {query_id} has no checkpoint at recovery"
                )
            checkpoints[query_id] = ck
        rehomed = 0
        duration = 0.0
        if dead_now:
            live = [w for w in range(k) if w not in self._dead_workers]
            if not live:
                raise EngineError(
                    "every worker is down — recovery has no survivors to "
                    "re-home partitions onto"
                )
            vids = np.flatnonzero(np.isin(self.assignment, dead_now))
            if vids.size:
                targets = np.asarray(live, dtype=np.int64)[
                    np.arange(vids.size) % len(live)
                ]
                self.assignment[vids] = targets
                rehomed = int(vids.size)
                # reloading a partition from stable storage rides the
                # controller link of its new owner; links load concurrently
                payloads = np.bincount(targets, minlength=k)
                for dst in live:
                    payload = int(payloads[dst]) * self.config.vertex_state_bytes
                    if payload == 0:
                        continue
                    link = self.cluster.controller_link(dst)
                    duration = max(duration, link.latency + payload / link.bandwidth)
        restored: List[int] = []
        rolled_iters = 0
        for query_id in sorted(self.running):
            qr = self.runtimes[query_id]
            ck = checkpoints[query_id]
            rolled_iters += ck.restore(qr, self.assignment)
            qr.grow(self.graph.num_vertices)
            restored.append(query_id)
            if self.sanitizer is not None:
                self.sanitizer.on_query_restored(
                    query_id, qr, ck.fingerprint, self.assignment, now
                )
        # every pre-crash dispatch/resolution is void: the rollback fenced
        # them with an epoch bump and stage R re-dispatches from scratch
        self._tainted_queries.clear()
        self._held_resolutions.clear()
        self._held_tasks.clear()
        self._held_other_tasks.clear()
        self._restored_queries = restored
        self.scheduler.on_assignment_changed(self.assignment)
        self.controller.set_down_workers(frozenset(self._dead_workers))
        detection = max(
            (detect - crash for _w, crash, detect in handled), default=0.0
        )
        self.trace.recovered(
            RecoveryRecord(
                time=now,
                workers=tuple(sorted(w for w, _crash, _detect in handled)),
                detection_latency=detection,
                queries_rolled_back=len(restored),
                iterations_rolled_back=rolled_iters,
                rehomed_vertices=rehomed,
                stall_duration=(now + duration) - self._stop_begin_time,
            )
        )
        self.queue.schedule(now + duration, "global_start")
