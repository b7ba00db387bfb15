"""Pluggable query admission scheduling.

Q-Graph's thesis is that *which queries run where, together* determines
locality — so the order in which the admission queue releases queries into
the ``max_parallel_queries`` execution slots matters as much as where their
scopes live.  Hauck et al. ("Scheduling of Graph Queries: Igniting Graph
Processing Systems with Federated Workloads", 2021) measure integer-factor
throughput swings from admission/parallelism policy alone; Quegel (Yan et
al.) builds admission control into the framework itself.

This module extracts the engine's admission queue (previously a bare FIFO
``deque``) behind a :class:`Scheduler` interface and ships two policies:

``fifo``
    Arrival order — event-for-event identical to the historical deque
    (proven by an equivalence test against a reference engine that still
    uses a raw deque).
``locality``
    Batches pending queries whose start vertices share a *home worker*
    under the engine's current ``assignment``; admitted cohorts therefore
    co-locate and run under cheap local barriers.  The home-worker index is
    refreshed after every repartition (STOP/START), so cohorts follow the
    Q-cut controller's moves.

All policies are deterministic: ties break on arrival order (a
monotonically increasing sequence number), never on hash or dict order.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.engine.query import Query
from repro.errors import EngineError

__all__ = [
    "Scheduler",
    "FifoScheduler",
    "LocalityScheduler",
    "make_scheduler",
    "SCHEDULER_POLICIES",
]


class Scheduler:
    """Admission-queue policy: holds queries that cannot start yet.

    The engine calls :meth:`add` when a query arrives while the engine is
    paused or saturated, :meth:`pop` whenever an execution slot frees up,
    and :meth:`on_assignment_changed` after a repartition commits a new
    vertex→worker assignment — for *every* STOP/START, including partial
    ones (``EngineConfig.repartition_mode == "partial"``), whose plans also
    rewrite the assignment before anything is admitted.  ``len(scheduler)``
    is the number of pending queries; :meth:`pending_queries` is a stable
    snapshot for tests and introspection.
    """

    name = "base"

    def add(self, query: Query) -> None:
        raise NotImplementedError

    def pop(self) -> Optional[Query]:
        """Next query to admit, or ``None`` when empty."""
        raise NotImplementedError

    def on_assignment_changed(self, assignment: np.ndarray) -> None:
        """A repartition moved vertices; refresh any placement-derived state."""

    def on_query_started(self, query: Query) -> None:
        """A query entered an execution slot (admitted or started directly)."""

    def on_query_finished(self, query: Query) -> None:
        """A query left its execution slot."""

    def __len__(self) -> int:
        raise NotImplementedError

    def __bool__(self) -> bool:
        return len(self) > 0

    def pending_queries(self) -> List[Query]:
        """Snapshot of queued queries (in an arbitrary but stable order)."""
        raise NotImplementedError


class FifoScheduler(Scheduler):
    """Arrival order — the historical admission queue, verbatim."""

    name = "fifo"

    def __init__(self) -> None:
        self._queue: Deque[Query] = deque()

    def add(self, query: Query) -> None:
        self._queue.append(query)

    def pop(self) -> Optional[Query]:
        return self._queue.popleft() if self._queue else None

    def __len__(self) -> int:
        return len(self._queue)

    def pending_queries(self) -> List[Query]:
        return list(self._queue)


class LocalityScheduler(Scheduler):
    """Admit co-located cohorts, balanced across home workers.

    Pending queries are bucketed by the worker owning their first initial
    vertex under the current assignment.  ``pop`` takes the next query
    (FIFO within its bucket) from the bucket whose home worker currently
    has the *fewest in-flight queries* — ties to the largest bucket, then
    the smallest worker id.  Because the engine admits in a tight loop
    whenever slots free up, the running set converges to per-worker
    cohorts that share a home (cheap local barriers, and a concentrated
    scope mix the Q-cut controller can consolidate) while every worker
    stays busy — draining one bucket at a time would serialize the whole
    batch on a single worker CPU.

    After a repartition the engine pushes the new assignment through
    :meth:`on_assignment_changed` and every pending query is re-bucketed,
    so cohorts track the Q-cut controller's consolidation moves.
    """

    name = "locality"

    def __init__(self, assignment: Optional[np.ndarray] = None) -> None:
        self._assignment = assignment
        #: worker -> FIFO of (seq, query); -1 holds queries whose home is
        #: unknown (no assignment bound yet)
        self._buckets: Dict[int, Deque[Tuple[int, Query]]] = {}
        #: home worker -> number of currently running queries started there
        self._inflight: Dict[int, int] = {}
        #: query id -> (query, home worker) of the currently running queries
        self._started: Dict[int, Tuple[Query, int]] = {}
        self._seq = 0
        self._count = 0

    def _home(self, query: Query) -> int:
        if self._assignment is None:
            return -1
        return int(self._assignment[query.initial_vertices[0]])

    def add(self, query: Query) -> None:
        self._buckets.setdefault(self._home(query), deque()).append(
            (self._seq, query)
        )
        self._seq += 1
        self._count += 1

    def pop(self) -> Optional[Query]:
        if self._count == 0:
            return None
        home = min(
            (w for w, b in self._buckets.items() if b),
            key=lambda w: (self._inflight.get(w, 0), -len(self._buckets[w]), w),
        )
        _seq, query = self._buckets[home].popleft()
        self._count -= 1
        return query

    def on_query_started(self, query: Query) -> None:
        home = self._home(query)
        self._started[query.query_id] = (query, home)
        self._inflight[home] = self._inflight.get(home, 0) + 1

    def on_query_finished(self, query: Query) -> None:
        entry = self._started.pop(query.query_id, None)
        if entry is not None:
            self._inflight[entry[1]] -= 1

    def on_assignment_changed(self, assignment: np.ndarray) -> None:
        self._assignment = assignment
        entries = self._sorted_entries()
        self._buckets = {}
        for seq, query in entries:
            self._buckets.setdefault(self._home(query), deque()).append((seq, query))
        # running queries' scopes moved with the repartition too: re-home the
        # in-flight counts so the balance heuristic tracks the new placement
        self._inflight = {}
        for qid, (query, _old_home) in self._started.items():
            home = self._home(query)
            self._started[qid] = (query, home)
            self._inflight[home] = self._inflight.get(home, 0) + 1

    def _sorted_entries(self) -> List[Tuple[int, Query]]:
        """Every pending (seq, query) entry in arrival order."""
        return sorted(
            (entry for bucket in self._buckets.values() for entry in bucket),
            key=lambda e: e[0],
        )

    def __len__(self) -> int:
        return self._count

    def pending_queries(self) -> List[Query]:
        return [q for _s, q in self._sorted_entries()]


SCHEDULER_POLICIES: Dict[str, type] = {
    FifoScheduler.name: FifoScheduler,
    LocalityScheduler.name: LocalityScheduler,
}


def make_scheduler(
    policy: Union[str, Scheduler], assignment: Optional[np.ndarray] = None
) -> Scheduler:
    """Build a scheduler from a policy name (or pass an instance through).

    ``assignment`` seeds placement-aware policies with the engine's initial
    vertex→worker map.
    """
    if isinstance(policy, Scheduler):
        if assignment is not None:
            policy.on_assignment_changed(assignment)
        return policy
    cls = SCHEDULER_POLICIES.get(policy)
    if cls is None:
        raise EngineError(
            f"unknown scheduler policy {policy!r}; "
            f"pick one of {sorted(SCHEDULER_POLICIES)} or pass a Scheduler"
        )
    if cls is LocalityScheduler:
        return cls(assignment)
    return cls()
