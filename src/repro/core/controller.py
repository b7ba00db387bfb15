"""The centralized controller (§3.1, §3.2, §3.4).

The controller owns the MAPE loop:

* **Monitor** — workers piggyback stats on barrier messages; the controller
  tracks windowed query locality (:class:`~repro.core.monitoring.QueryMonitor`)
  and global query scopes (:class:`~repro.core.scopes.ScopeStore`).
* **Analyze** — when the average query locality over the window falls below
  the threshold Φ, repartitioning is warranted (§3.4).
* **Plan** — queries are clustered (Karger variant, Appendix A.1) into
  ``4k`` clusters, a high-level :class:`~repro.core.state.QcutState` is
  built, and Algorithm 1 (ILS) searches for a low-cost Q-cut.  This runs
  *asynchronously* to graph processing — the engine charges the configured
  virtual compute time but lets workers continue.
* **Execute** — the resulting high-level moves are translated back into
  low-level :class:`~repro.core.api.MoveRequest` vertex sets, applied under
  a global STOP/START barrier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.api import MoveRequest
from repro.core.clustering import cluster_queries
from repro.core.ils import IlsResult, iterated_local_search
from repro.core.monitoring import QueryMonitor
from repro.core.scopes import ScopeStore
from repro.core.state import Fragment, QcutState
from repro.errors import ControllerError
from repro.graph.digraph import DiGraph

__all__ = ["ControllerConfig", "MovePlan", "Controller"]

#: a Q-cut snapshot: the ILS state, the vertices of each (unit, origin
#: worker) fragment, and whether the snapshot is held (``_finalize_snapshot``)
Snapshot = Tuple[QcutState, Dict[Tuple[int, int], np.ndarray], bool]


@dataclass(frozen=True)
class ControllerConfig:
    """Tunable parameters (defaults follow §4.1 System Settings).

    Attributes
    ----------
    mu:
        Monitoring window in (virtual) seconds — how long old queries stay
        in the controller's global view (paper: 240 s).
    phi:
        Locality threshold triggering Q-cut (paper: 0.7; robust in
        [0.3, 0.99]).
    delta:
        Maximum allowed workload imbalance (paper: 0.25).
    max_tracked_queries:
        Hard cap on the number of windowed queries (paper: 128).
    clusters_per_worker:
        Query clusters per worker for the Karger preprocessing (paper: 4,
        i.e. "4k clusters").
    qcut_compute_time:
        Virtual seconds the controller spends computing a Q-cut (paper: 2 s)
        — overlapped with worker execution.
    ils_rounds:
        Deterministic ILS round budget standing in for the wall-clock limit.
    qcut_cooldown:
        Minimum virtual seconds between consecutive repartitionings.
    min_queries_for_qcut:
        Do not bother repartitioning with fewer observed queries.
    """

    mu: float = 240.0
    phi: float = 0.7
    delta: float = 0.25
    max_tracked_queries: int = 128
    clusters_per_worker: int = 4
    qcut_compute_time: float = 2.0
    ils_rounds: int = 40
    qcut_cooldown: float = 20.0
    min_queries_for_qcut: int = 4
    seed: int = 0


@dataclass
class MovePlan:
    """The Execute-step payload: low-level vertex moves plus provenance."""

    moves: List[MoveRequest] = field(default_factory=list)
    cost_before: float = 0.0
    cost_after: float = 0.0
    ils_result: Optional[IlsResult] = None
    #: workers that source or receive vertices under this plan — the seed of
    #: the engine's partial STOP/START halt set (the engine widens it with
    #: the mailbox owners of queries whose state the moves touch)
    involved_workers: FrozenSet[int] = frozenset()

    @property
    def moved_vertices(self) -> int:
        """Listed vertex-moves: the sum of the moves' sizes.

        A vertex named by several moves counts once per move, so a plan over
        overlapping units lists more than it migrates (a plan over units
        covering the 12 k-vertex ``churn_recovery`` graph 4.5 times lists
        54 k vertex-moves).  The engine
        migrates such a vertex once, to the first move's destination in plan
        order, and ``RepartitionRecord.moved_vertices`` counts it once.
        """
        return int(sum(m.size for m in self.moves))

    def __bool__(self) -> bool:
        return bool(self.moves)


class Controller:
    """Centralized graph-management layer."""

    def __init__(self, num_workers: int, config: Optional[ControllerConfig] = None) -> None:
        if num_workers < 1:
            raise ControllerError("need at least one worker")
        self.k = num_workers
        self.config = config or ControllerConfig()
        self.monitor = QueryMonitor(
            window=self.config.mu, max_queries=self.config.max_tracked_queries
        )
        self.scopes = ScopeStore()
        self.last_qcut_time = -float("inf")
        self._qcut_running = False
        self._snapshot: Optional[Snapshot] = None
        #: whether a full admission round was waiting when the snapshot was
        #: taken — the one condition under which its plan may trade cost
        #: for balance (``iterated_local_search``'s ``balance_first``)
        self._saturated = True
        self._qcut_count = 0
        #: exponential backoff applied to the cooldown when consecutive
        #: Q-cuts stop improving (the workload's locality has plateaued at
        #: its balance-constrained optimum — no point thrashing)
        self._backoff = 1.0
        #: vertices tombstoned by graph churn — future activation reports
        #: (workers may still be flushing pre-churn iterations) are
        #: filtered against this so dead ids never re-enter the scopes
        self._dead_vertices: Set[int] = set()
        #: workers currently known crashed (fault tolerance): placement and
        #: move planning must not target them until they recover
        self._down_workers: FrozenSet[int] = frozenset()

    # ------------------------------------------------------------------
    # fault awareness
    # ------------------------------------------------------------------
    def set_down_workers(self, workers: FrozenSet[int]) -> None:
        """Sync the engine's crash knowledge into the planning layer."""
        if len(workers) >= self.k:
            raise ControllerError("every worker reported down")
        self._down_workers = frozenset(workers)

    def _redirect_off_down_workers(self, owners: np.ndarray) -> np.ndarray:
        """Remap any owner choice that landed on a down worker.

        Deterministic round-robin over the live workers, so placement stays
        reproducible for a pinned fault schedule.
        """
        if not self._down_workers:
            return owners
        down = np.isin(owners, sorted(self._down_workers))
        if not down.any():
            return owners
        live = np.array(
            [w for w in range(self.k) if w not in self._down_workers],
            dtype=owners.dtype,
        )
        owners = owners.copy()
        owners[down] = live[np.arange(int(down.sum())) % live.size]
        return owners

    # ------------------------------------------------------------------
    # Monitor
    # ------------------------------------------------------------------
    def on_query_started(self, query_id: int, now: float) -> None:
        for evicted in self.monitor.record_start(query_id, now):
            self.scopes.drop(evicted)

    def on_iteration(
        self,
        query_id: int,
        involved_workers: int,
        activated_vertices: List[int],
        now: float,
    ) -> None:
        """Digest one piggybacked stats + barrierSynch round for a query."""
        for evicted in self.monitor.record_iteration(query_id, involved_workers, now):
            self.scopes.drop(evicted)
        if activated_vertices:
            if self._dead_vertices:
                activated_vertices = [
                    v for v in activated_vertices if v not in self._dead_vertices
                ]
            if activated_vertices:
                self.scopes.add_activations(query_id, activated_vertices)

    def on_query_finished(self, query_id: int, now: float) -> None:
        self.monitor.record_finish(query_id, now)
        for stale in self.monitor.evict_stale(now):
            self.scopes.drop(stale)

    def on_graph_mutation(self, removed_vertices: Sequence[int]) -> None:
        """Digest a graph-churn epoch (the Execute side of topology streams).

        Tombstoned vertices are truncated out of every tracked scope so the
        next Q-cut snapshot never plans moves of dead ids, and remembered so
        late-arriving activation reports cannot re-introduce them.
        """
        if not removed_vertices:
            return
        self._dead_vertices.update(int(v) for v in removed_vertices)
        self.scopes.remove_vertices(removed_vertices)

    def place_new_vertices(
        self, graph: DiGraph, new_ids: np.ndarray, assignment: np.ndarray
    ) -> np.ndarray:
        """Owners for vertices appended by graph churn (streaming LDG).

        New junctions join the partition holding most of their already-placed
        neighbourhood, subject to the usual LDG capacity penalty — the
        natural incremental complement to whatever initial partitioner built
        ``assignment``.
        """
        from repro.partitioning.ldg import ldg_place_vertices

        owners = ldg_place_vertices(graph, new_ids, assignment, self.k)
        return self._redirect_off_down_workers(owners)

    def average_locality(self) -> float:
        """Monitored average query locality (the Φ signal)."""
        return self.monitor.average_locality()

    def estimate_imbalance(self, assignment: np.ndarray) -> float:
        """Windowed workload imbalance under the A.1 load model.

        ``L_w = (|V(w)| + sum_q |LS(q, w)|) / 2`` computed from the scope
        table; returns ``(max - min) / max`` over workers.
        """
        # one bincount over the incidence structure for all queries
        scope_mass = self.scopes.scope_mass(
            assignment, self.k, query_ids=self.monitor.tracked_queries()
        ).astype(np.float64)
        vertices = np.bincount(assignment, minlength=self.k).astype(np.float64)
        loads = (vertices + scope_mass) / 2.0
        top = loads.max()
        if top <= 0:
            return 0.0
        return float((top - loads.min()) / top)

    # ------------------------------------------------------------------
    # Analyze
    # ------------------------------------------------------------------
    def should_trigger_qcut(
        self, now: float, assignment: Optional[np.ndarray] = None
    ) -> bool:
        """Whether to kick off an asynchronous Q-cut computation.

        §3.4 triggers "when the statistics indicate that the current
        partitioning is suboptimal": average query locality below Φ, or —
        the balance half of the objective — windowed workload imbalance of
        at least 2δ (this is what lets Q-cut repair Domain's straggler
        problem even though Domain's locality is excellent).  δ itself is
        the ILS's balance bound, so a trigger fires only well outside what
        a plan may leave.
        """
        if self._qcut_running:
            return False
        if now - self.last_qcut_time < self.config.qcut_cooldown * self._backoff:
            return False
        if len(self.monitor) < self.config.min_queries_for_qcut:
            return False
        if self.average_locality() < self.config.phi:
            return True
        if assignment is not None:
            return self.estimate_imbalance(assignment) >= self.config.delta * 2.0
        return False

    # ------------------------------------------------------------------
    # Plan
    # ------------------------------------------------------------------
    def begin_qcut(
        self, assignment: np.ndarray, now: float, saturated: bool = True
    ) -> float:
        """Snapshot the high-level state; returns the virtual compute time.

        The engine should schedule the ``qcut_done`` event after the returned
        duration and then call :meth:`complete_qcut`.  ``saturated`` says
        whether queries were queueing for admission (at least a full
        admission round waiting): only then may the plan give up query-cut
        to buy balance.
        """
        if self._qcut_running:
            raise ControllerError("a Q-cut computation is already running")
        self._qcut_running = True
        self._snapshot = self._build_snapshot(assignment)
        self._saturated = saturated
        return self.config.qcut_compute_time

    def _nonempty_tracked_queries(self) -> List[int]:
        return [
            qid
            for qid in self.monitor.tracked_queries()
            if self.scopes.global_scope_size(qid) > 0
        ]

    def _build_snapshot(self, assignment: np.ndarray) -> Snapshot:
        """High-level representation: clusters -> per-worker fragments.

        Every per-query/per-cluster quantity is one bincount or
        presence-mask pass over the scope store's incidence structure.
        """
        store = self.scopes
        query_ids = self._nonempty_tracked_queries()
        overlaps = store.pairwise_intersections(query_ids=query_ids)
        max_clusters = max(self.config.clusters_per_worker * self.k, 1)
        labels = cluster_queries(
            query_ids, overlaps, max_clusters, seed=self.config.seed + self._qcut_count
        )
        num_units = max(labels.values()) + 1 if labels else 0
        if num_units == 0:
            return self._finalize_snapshot(assignment, num_units, [], {})

        # per-query local sizes -> per-cluster weighted masses in one
        # scatter-add (shared vertices count once per member query)
        sizes, row_qids = store.local_size_matrix(assignment, self.k, query_ids)
        unit_of_row = np.array([labels[int(q)] for q in row_qids], dtype=np.int64)
        weighted = np.zeros((num_units, self.k), dtype=np.int64)
        np.add.at(weighted, unit_of_row, sizes)

        # distinct (unit, vertex) incidences, encoded — the union mass is
        # what a move actually relocates.  The codes are bounded by
        # num_units * n, so a presence mask yields the sorted distinct codes
        # without np.unique's hashing
        verts, scope_sizes, _qids = store.incidence(query_ids)
        units = np.repeat(unit_of_row, scope_sizes)
        n = assignment.size
        present = np.zeros(num_units * n, dtype=bool)
        present[units * n + verts] = True
        uniq = np.flatnonzero(present)
        unit_u = uniq // n
        vert_u = uniq % n
        owners = assignment[vert_u]

        # group by (unit, owner): fragments come out in (unit, owner) order,
        # each one's vertices ascending.  uniq
        # is ascending, i.e. already in (unit, vertex) order, so one stable
        # sort on the encoded (unit, owner) key (owners lie in [0, k)) leaves
        # each group's vertices ascending — the permutation of
        # lexsort((vert_u, owners, unit_u)).  The key has num_units * k
        # values, 256 at the paper's settings: as 16-bit integers numpy
        # radix-sorts them, a twentieth of the lexsort's cost
        group_key = unit_u * self.k + owners
        if num_units * self.k <= 2**16:
            group_key = group_key.astype(np.uint16)
        order = np.argsort(group_key, kind="stable")
        u_s = unit_u[order]
        w_s = owners[order]
        v_s = vert_u[order]
        change = np.empty(u_s.size, dtype=bool)
        change[0] = True
        change[1:] = (u_s[1:] != u_s[:-1]) | (w_s[1:] != w_s[:-1])
        starts = np.flatnonzero(change)
        ends = np.append(starts[1:], u_s.size)

        fragments: List[Fragment] = []
        fragment_vertices: Dict[Tuple[int, int], np.ndarray] = {}
        for s, e in zip(starts, ends):
            unit = int(u_s[s])
            w = int(w_s[s])
            members = v_s[s:e]
            fragments.append(
                Fragment(
                    unit=unit,
                    origin_worker=w,
                    union_size=int(members.size),
                    weighted_size=int(max(weighted[unit, w], members.size)),
                )
            )
            fragment_vertices[(unit, w)] = members
        return self._finalize_snapshot(
            assignment, num_units, fragments, fragment_vertices
        )

    def _finalize_snapshot(
        self,
        assignment: np.ndarray,
        num_units: int,
        fragments: List[Fragment],
        fragment_vertices: Dict[Tuple[int, int], np.ndarray],
    ) -> Snapshot:
        # a fragment's union mass is its vertex count, so the per-worker
        # scope vertex count is one weighted bincount over the fragments
        scope_vertex_count = np.bincount(
            np.array([f.origin_worker for f in fragments], dtype=np.int64),
            weights=np.array([f.union_size for f in fragments], dtype=np.float64),
            minlength=self.k,
        )
        totals = np.bincount(assignment, minlength=self.k).astype(np.float64)
        base = np.maximum(totals - scope_vertex_count, 0.0)
        # hold a snapshot whose fragments list more vertices than the graph
        # has: its units cannot be disjoint, so the clamp above is engaged on
        # some worker and the load model |V(w)| = base[w] + U[w] the ILS
        # optimises is already false — the realisability bound, not a tuned
        # threshold
        held = bool(scope_vertex_count.sum() > assignment.size)
        state = QcutState(
            num_units=num_units,
            num_workers=self.k,
            fragments=fragments,
            base_vertices=base,
            delta=self.config.delta,
        )
        return state, fragment_vertices, held

    def complete_qcut(self, now: float) -> MovePlan:
        """Run the ILS on the snapshot and emit the low-level move plan.

        A held snapshot runs no ILS (no rounds, no random draws) and yields
        an empty plan, which backs off like every plan without moves.
        """
        if not self._qcut_running or self._snapshot is None:
            raise ControllerError("no Q-cut computation in progress")
        state, fragment_vertices, held = self._snapshot
        self._snapshot = None
        self._qcut_running = False
        self.last_qcut_time = now
        self._qcut_count += 1

        if state.num_units == 0:
            return MovePlan()

        plan = (
            MovePlan()
            if held
            else self._plan(state, fragment_vertices, self._saturated)
        )
        # adaptive backoff: when the ILS stops finding substantial
        # improvements, the partitioning has converged to its
        # balance-constrained optimum — repartitioning again would only
        # shuffle vertices and pay global barriers for nothing.  A held
        # snapshot's empty plan backs off the same way.
        result = plan.ils_result
        if not plan.moves or result is None or result.improvement < 0.15:
            self._backoff = min(self._backoff * 2.0, 16.0)
        else:
            self._backoff = 1.0
        return plan

    def _plan(
        self,
        state: QcutState,
        fragment_vertices: Dict[Tuple[int, int], np.ndarray],
        saturated: bool,
    ) -> MovePlan:
        """The ILS on ``state``, its best state translated into moves.

        Balance is worth query-cut only under saturation: when a full
        admission round queues, latency is set by throughput, which balance
        buys; otherwise it is the query's own service time, which locality
        buys (``docs/controller.md``, "The MAPE loop").
        """
        result = iterated_local_search(
            state,
            max_rounds=self.config.ils_rounds,
            seed=self.config.seed + self._qcut_count,
            balance_first=saturated,
        )
        plan = MovePlan(
            cost_before=result.initial_cost,
            cost_after=result.best_cost,
            ils_result=result,
        )
        for unit, origin, current in result.best_state.relocated_fragments():
            vertices = fragment_vertices.get((unit, origin))
            if vertices is None or vertices.size == 0:
                continue
            if origin in self._down_workers or current in self._down_workers:
                # a crashed worker can neither ship nor receive state; the
                # post-recovery Q-cut replans with the survivors
                continue
            plan.moves.append(MoveRequest(src=origin, dst=current, vertices=vertices))
        # annotate the plan with the workers the Execute step touches — a
        # subset of the solution-level relocation workers
        # (QcutState.relocation_workers), narrowed to the moves that still
        # carry vertices: empty fragments never make it into the plan
        plan.involved_workers = frozenset(
            w for m in plan.moves for w in (m.src, m.dst)
        )
        return plan

    @property
    def qcut_count(self) -> int:
        """Completed Q-cut computations so far."""
        return self._qcut_count
