"""Query definition and per-query runtime state.

§2: *"We define a query q as a tuple (f, Vsub) of a vertex function f and an
initial subset of active vertices Vsub ⊆ V."*  :class:`Query` is that tuple
plus bookkeeping labels; :class:`QueryRuntime` is the engine-internal mutable
execution state (query-local vertex data, per-worker mailboxes, barrier
bookkeeping) — the "separate query-specific vertex data" that prevents write
conflicts between parallel queries.  Every runtime holds its vertex data in
its kernel's dense buffers and its messages in array mailboxes, whether the
kernel is the program's own or the per-vertex
:class:`~repro.engine.kernels.VertexFunctionKernel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.errors import QueryError
from repro.engine.kernels import (
    ArrayMailbox,
    VertexFunctionKernel,
    group_by_owner,
    scope_columns,
)
from repro.engine.vertex_program import AggregatorSpec, VertexProgram
from repro.graph.digraph import DiGraph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.checkpoint import QueryCheckpoint

__all__ = ["Query", "QueryRuntime"]

_NO_VERTICES = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class Query:
    """An analytics query: vertex function + initial active vertices.

    Attributes
    ----------
    query_id:
        Unique id assigned by the submitter.
    program:
        The vertex function ``f`` (a :class:`VertexProgram`).
    initial_vertices:
        ``Vsub`` — e.g. ``(start,)`` for SSSP.
    phase:
        Free-form experiment label (e.g. ``"intra"`` / ``"inter"`` for the
        Fig. 5 disturbance phases); carried into the metric trace.
    """

    query_id: int
    program: VertexProgram
    initial_vertices: Tuple[int, ...]
    phase: str = "default"

    def __post_init__(self) -> None:
        if not self.initial_vertices:
            raise QueryError(f"query {self.query_id} has empty Vsub")

    @property
    def kind(self) -> str:
        return self.program.kind


class QueryRuntime:
    """Everything the engine knows about one query, for exactly as long as
    the query runs.

    The runtime is the single owner of per-query state: vertex data,
    mailboxes, barrier bookkeeping, the activation report buffer, the
    in-flight compute counts and the latest checkpoint all live here (the
    engine keeps no map keyed by query id besides ``runtimes`` itself).
    :meth:`release` ends that lifetime at finish: the ``answer`` columns
    stay for ``query_result()``, every working structure goes.

    Mailboxes are ``{worker: ArrayMailbox}``; the vertex data lives in the
    kernel's dense buffers (``kstate``) with the scope tracked by
    ``scope_mask``.  At finish the dense buffers shrink to ``answer``: the
    scope ids and each state column gathered at them.  The kernel is the
    program's own, or :class:`~repro.engine.kernels.VertexFunctionKernel`
    when ``make_kernel`` returns ``None``; this constructor is the one
    place that decides.

    The query scope GS(q) has one representation per phase — ``scope_mask``
    while the query runs, ``answer[0]`` once it has finished — read through
    :meth:`scope_vertices`; the ``{vertex: Dv}`` view is built on demand by
    :meth:`materialized_state`, from the same gather on both phases.
    """

    __slots__ = (
        "query",
        "mailboxes",
        "next_mailboxes",
        "inbox_ready",
        "pending_remote_inbound",
        "iteration",
        "involved",
        "acked",
        "computed",
        "prior_participants",
        "barrier_epoch",
        "agg_specs",
        "agg_committed",
        "agg_partials",
        "activated",
        "inflight",
        "checkpoint",
        "finished",
        "kernel",
        "kstate",
        "scope_mask",
        "answer",
    )

    def __init__(self, query: Query, graph: DiGraph) -> None:
        self.query = query
        #: worker -> messages for the *current* iteration
        self.mailboxes: Dict[int, ArrayMailbox] = {}
        #: worker -> messages being gathered for the next one
        self.next_mailboxes: Dict[int, ArrayMailbox] = {}
        #: worker -> virtual time when its inbox for the next iteration is complete
        self.inbox_ready: Dict[int, float] = {}
        #: worker -> raw remote messages awaiting deserialization there
        self.pending_remote_inbound: Dict[int, int] = {}
        self.iteration = 0
        #: workers participating in the current iteration
        self.involved: Set[int] = set()
        #: workers whose barrierSynch arrived for the current iteration
        self.acked: Set[int] = set()
        #: workers that consumed their mailbox for the current iteration
        #: (distinguishes duplicate dispatches from rebucket casualties)
        self.computed: Set[int] = set()
        #: workers that computed part of the current iteration before a
        #: STOP/START interrupted it — no longer mailbox owners, but still
        #: participants for the iteration statistics
        self.prior_participants: Set[int] = set()
        #: bumped whenever ``acked`` is reset; barrier acks from an older
        #: epoch (e.g. in flight across a STOP/START barrier) are discarded
        self.barrier_epoch = 0
        #: the program's aggregator declarations, read once
        self.agg_specs: Dict[str, AggregatorSpec] = query.program.aggregators()
        #: committed aggregator values (visible to compute this iteration)
        self.agg_committed: Dict[str, Any] = {}
        #: per-worker aggregator partials gathered during the current iteration
        self.agg_partials: Dict[int, Dict[str, Any]] = {}
        #: vertices activated since the last controller report: ``int64``
        #: chunks, one per compute that activated any, in compute order
        self.activated: List[np.ndarray] = []
        #: worker -> computes whose ``compute_done`` has not fired yet
        #: (a partial STOP drains these)
        self.inflight: Dict[int, int] = {}
        #: latest barrier-aligned checkpoint (None until the first capture)
        self.checkpoint: Optional["QueryCheckpoint"] = None
        self.finished = False
        #: the iteration kernel: the program's own, else its vertex function
        self.kernel = query.program.make_kernel(graph) or VertexFunctionKernel(
            query.program
        )
        #: kernel-owned dense state buffers (None once released)
        self.kstate: Any = self.kernel.make_state(graph)
        #: dense activation flags: the query scope while the query runs
        self.scope_mask: Optional[np.ndarray] = np.zeros(
            graph.num_vertices, dtype=bool
        )
        #: a finished query's answer, written once by :meth:`release`:
        #: ``(scope ids, *state columns gathered at them)``
        self.answer: Optional[Tuple[np.ndarray, ...]] = None

        for name, (_fn, identity) in self.agg_specs.items():
            self.agg_committed[name] = identity

    # ------------------------------------------------------------------
    def deliver_array(
        self,
        worker: int,
        vertices: np.ndarray,
        messages: np.ndarray,
        to_next: bool = True,
    ) -> None:
        """Append a message chunk to a worker's (next-)iteration array mailbox."""
        if vertices.size == 0:
            return
        target = self.next_mailboxes if to_next else self.mailboxes
        box = target.get(worker)
        if box is None:
            box = target[worker] = ArrayMailbox()
        box.append(vertices, messages)

    def seed_messages(
        self, pairs: Iterable[Tuple[int, Any]], assignment: np.ndarray
    ) -> None:
        """Deliver the program's seed messages to their owners' next mailboxes."""
        vertices, messages = self.kernel.encode_messages(pairs)
        vertices, messages = self.kernel.combine_arrays(vertices, messages)
        for owner, vchunk, mchunk in group_by_owner(
            assignment[vertices], vertices, messages
        ):
            self.deliver_array(owner, vchunk, mchunk)

    def rotate_mailboxes(self) -> None:
        """Promote next-iteration mailboxes to current (at barrier release)."""
        self.mailboxes = {w: box for w, box in self.next_mailboxes.items() if box}
        self.next_mailboxes = {}
        self.inbox_ready = {}

    def rebucket(
        self, assignment: np.ndarray, workers: Optional[Set[int]] = None
    ) -> None:
        """Re-home mailbox entries after vertices moved between workers.

        Handles both mailbox generations.  When two old boxes each hold a
        message for the same vertex, both chunks go to the new owner;
        combining waits for consumption, so no message is dropped.

        ``workers`` restricts the pass to mailboxes currently homed on
        those workers (partial STOP/START: every message addressed to a
        moved vertex was delivered to its pre-move owner, which is part of
        the halted set, so scanning only the halted workers' boxes is
        lossless).  ``None`` scans everything.

        Both generations are assigned explicitly (no ``setattr`` loop) so
        the writes are visible to the static effect analysis — the
        atomic-mutation and checkpoint rules reason over exactly these
        attribute stores.
        """
        self.mailboxes = _rebucket_boxes(self.mailboxes, assignment, workers)
        self.next_mailboxes = _rebucket_boxes(
            self.next_mailboxes, assignment, workers
        )

    def open_generation(self, involved: Set[int]) -> None:
        """Start a fresh barrier generation over ``involved``.

        The one writer of the ``(acked, involved, barrier_epoch)`` couple
        (``BARRIER_ACK_PROTOCOLS``): membership, the ack set and the epoch
        only ever change together, so an ack stamped with an older epoch
        can never count toward a barrier it did not join.
        """
        self.involved = involved
        self.acked = set()
        self.computed = set()
        self.barrier_epoch += 1

    def take_activated(self) -> np.ndarray:
        """Hand over (and clear) the activations gathered since the last
        controller report, as one ``int64`` array."""
        chunks = self.activated
        self.activated = []
        if not chunks:
            return _NO_VERTICES
        return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)

    def reset_barrier_protocol(self) -> None:
        """Invalidate all in-flight barrier traffic for this query.

        Used by crash recovery after a checkpoint restore (and by
        :meth:`release`): the epoch bump makes every earlier ack stale (the
        same mechanism that fences acks across a STOP/START barrier), and
        the participant bookkeeping restarts from the current — restored
        and already re-homed — mailboxes.
        """
        self.open_generation(set(self.mailboxes))
        self.prior_participants = set()
        self.inbox_ready = {}
        self.agg_partials = {}
        self.activated = []

    def grow(self, new_n: int) -> None:
        """Extend the dense kernel buffers after a graph mutation appended
        vertices."""
        if self.scope_mask is None or self.scope_mask.size >= new_n:
            return
        self.kstate = self.kernel.grow_state(self.kstate, new_n)
        grown = np.zeros(new_n, dtype=bool)
        grown[: self.scope_mask.size] = self.scope_mask
        self.scope_mask = grown

    def purge_dead_targets(self, dead_mask: np.ndarray) -> int:
        """Drop *next-iteration* messages addressed to tombstoned vertices.

        Only the next generation is touched: the current iteration's
        mailboxes already have tasks dispatched against their owner set, so
        removing entries there could empty a box whose owner is mid-barrier
        (the stale-dispatch redirect would misread that as a re-homing).  A
        message left in the current generation for a dead vertex is
        harmless — the vertex has no out-edges after the flush, so the wave
        dies there.  Returns the number of messages dropped.
        """
        dropped = 0
        fresh: Dict[int, ArrayMailbox] = {}
        for w, box in self.next_mailboxes.items():
            vertices, messages = box.concat()
            if vertices.size == 0:
                continue
            keep = ~dead_mask[vertices]
            dropped += int(vertices.size - np.count_nonzero(keep))
            if keep.all():
                fresh[w] = box
            elif keep.any():
                kept = ArrayMailbox()
                kept.append(vertices[keep], messages[keep])
                fresh[w] = kept
        self.next_mailboxes = fresh
        return dropped

    def materialized_state(self) -> Dict[int, Any]:
        """The sparse ``{vertex: Dv}`` view, running or finished."""
        columns = self.answer
        if self.scope_mask is not None:
            columns = scope_columns(self.kstate, self.scope_mask)
        return self.kernel.answer_dict(*columns)

    def scope_vertices(self) -> np.ndarray:
        """The query scope GS(q): every vertex activated so far (sorted)."""
        if self.scope_mask is not None:
            return np.flatnonzero(self.scope_mask)
        return self.answer[0].copy()

    def release(self) -> None:
        """End of the query's lifetime: keep the answer, drop the rest.

        The query keeps its answer as columns in ``answer`` — the ``int64``
        scope ids and each dense state column gathered at them, 16 B per
        SSSP entry — and no dict: ``materialized_state()``,
        ``query_result()`` and ``scope_vertices()`` rebuild their values
        from the columns on demand.  Every working structure is freed — dense buffers,
        both mailbox generations, barrier bookkeeping, activation buffer,
        in-flight map, checkpoint, aggregator declarations.  Event handlers
        reach a finished runtime only behind their ``qr.finished`` guard,
        and the barrier reset (over the now empty mailboxes) fences
        whatever acks are still on the wire.
        """
        if self.scope_mask is not None:
            self.answer = scope_columns(self.kstate, self.scope_mask)
        self.finished = True
        self.kstate = None
        self.scope_mask = None
        self.mailboxes = {}
        self.next_mailboxes = {}
        self.inbox_ready = {}
        self.pending_remote_inbound = {}
        self.reset_barrier_protocol()
        self.inflight = {}
        self.checkpoint = None
        self.agg_specs = {}

    def snapshot_result(self, graph: DiGraph) -> Any:
        """The query answer per the program's result extractor."""
        return self.query.program.result(self.materialized_state(), graph)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QueryRuntime(q={self.query.query_id}, it={self.iteration}, "
            f"involved={sorted(self.involved)}, finished={self.finished})"
        )


def _rebucket_boxes(
    old: Dict[int, ArrayMailbox],
    assignment: np.ndarray,
    workers: Optional[Set[int]],
) -> Dict[int, ArrayMailbox]:
    """One mailbox generation re-homed onto ``assignment``.

    Pure with respect to the runtime: takes the old ``{worker: box}`` map,
    returns the fresh one; :meth:`QueryRuntime.rebucket` assigns the result
    back so the attribute store stays statically visible.
    """
    fresh: Dict[int, ArrayMailbox] = {}
    scanned = []
    for w, box in old.items():
        if workers is not None and w not in workers:
            fresh[w] = box  # out of scope: stays in place
        else:
            scanned.append(box)
    for box in scanned:
        vertices, messages = box.concat()
        for owner, vchunk, mchunk in group_by_owner(
            assignment[vertices], vertices, messages
        ):
            dest = fresh.get(owner)
            if dest is None:
                dest = fresh[owner] = ArrayMailbox()
            dest.append(vchunk, mchunk)
    return fresh
