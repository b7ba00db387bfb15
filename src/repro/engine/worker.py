"""Simulated worker.

§3.1: *"The workers perform distributed graph query processing, i.e., they
execute the vertex functions on the active vertices and handle message
exchanges between neighboring vertices residing on different workers."*

A :class:`SimWorker` is a serial processor (one partition pinned to one core,
the design of the paper's scale-up deployments): tasks occupy it back-to-back
via the ``busy_until`` clock, which is how straggler coupling and barrier
queueing delays arise in the simulation.

The *logical* effect of an iteration (which vertices execute, which messages
go where) is computed eagerly by :meth:`execute_iteration`; the *temporal*
cost is returned as counters so the engine can charge virtual time according
to the machine and network models.  The logical half runs once per *run* —
the workers of one query whose tasks are ready at the same instant share one
kernel pass — the temporal half stays per worker: every member gets its own
:class:`IterationResult` and is charged on its own clock.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.engine.kernels import ArrayMailbox, contribute_partial, group_by_owner
from repro.engine.query import QueryRuntime
from repro.engine.vertex_program import ComputeContext
from repro.graph.digraph import DiGraph
from repro.simulation.cluster import MachineProfile

__all__ = ["SimWorker", "IterationResult"]


class IterationResult(NamedTuple):
    """Counters produced by one (query, iteration, worker) compute task."""

    executed_vertices: int
    visited_edges: int
    #: raw remote messages consumed from this worker's inbox (deserialization)
    remote_inbound: int
    #: raw (pre-combining) messages this task sent to its own worker
    local: int
    #: ``(destination, count)`` of the raw messages sent to each other
    #: worker, the non-zero cells only, destination ascending
    remote: List[Tuple[int, int]]


#: builds an :class:`IterationResult` from its field tuple without the
#: generated ``__new__``'s Python-level call (one per member of a run)
_new_result = tuple.__new__


class SimWorker:
    """One partition's serial executor."""

    __slots__ = ("wid", "machine", "busy_until", "vertex_executions")

    def __init__(self, wid: int, machine: MachineProfile) -> None:
        self.wid = wid
        self.machine = machine
        self.busy_until = 0.0
        #: lifetime counter (workload accounting)
        self.vertex_executions = 0

    # ------------------------------------------------------------------
    def occupy(self, ready_time: float, duration: float) -> Tuple[float, float]:
        """Reserve the CPU: returns (start, finish) honouring FCFS order."""
        start = max(ready_time, self.busy_until)
        finish = start + duration
        self.busy_until = finish
        return start, finish

    # ------------------------------------------------------------------
    @staticmethod
    def execute_iteration(
        workers: Sequence["SimWorker"],
        run: Sequence[int],
        qr: QueryRuntime,
        graph: DiGraph,
        assignment: np.ndarray,
    ) -> List[IterationResult]:
        """Run the vertex function on the active vertices of a *run*.

        ``run`` names distinct workers (ids into ``workers``, the cluster's
        executors) whose tasks for ``qr`` are ready at the same instant;
        one task is a run of length 1.  Consumes each member's current
        mailbox; routes produced messages into ``qr.next_mailboxes`` (remote
        targets too — the engine only needs the counts to charge network
        time).  Returns one :class:`IterationResult` per member, in run
        order, equal to what executing the members one after the other
        would produce.
        """
        if qr.kernel is None:
            return [
                workers[w]._execute_generic(qr, graph, assignment, len(workers))
                for w in run
            ]
        return SimWorker._execute_vectorized(workers, run, qr, graph, assignment)

    def _execute_generic(
        self, qr: QueryRuntime, graph: DiGraph, assignment: np.ndarray, k: int
    ) -> IterationResult:
        """One worker's iteration through ``VertexProgram.compute`` (dict
        mailboxes): the path of programs without a kernel."""
        remote_inbound = qr.pending_remote_inbound.pop(self.wid, 0)
        mailbox = qr.mailboxes.pop(self.wid, None)
        if not mailbox:
            return IterationResult(0, 0, remote_inbound, 0, [])

        program = qr.query.program
        agg_partial = qr.agg_partials.get(self.wid, {})
        ctx = ComputeContext(graph, qr.agg_committed, agg_partial)

        executed = visited = 0
        sent = [0] * k
        activated: List[int] = []
        for vertex, message in mailbox.items():
            if vertex not in qr.state:
                activated.append(vertex)
            ctx._reset(vertex, qr.iteration)
            old_state = qr.state.get(vertex)
            new_state = program.compute(ctx, vertex, old_state, message)
            qr.state[vertex] = new_state
            executed += 1
            visited += graph.out_degree(vertex)
            for target, msg in ctx._drain():
                owner = int(assignment[target])
                qr.deliver(owner, target, msg, to_next=True)
                sent[owner] += 1
                if owner != self.wid:
                    qr.pending_remote_inbound[owner] = (
                        qr.pending_remote_inbound.get(owner, 0) + 1
                    )
        self.vertex_executions += executed
        if agg_partial:
            # created at the first contribution, like the kernel path's
            qr.agg_partials[self.wid] = agg_partial
        if activated:
            qr.activated.append(np.array(activated, dtype=np.int64))
        remote = [
            (dest, count)
            for dest, count in enumerate(sent)
            if count and dest != self.wid
        ]
        return IterationResult(executed, visited, remote_inbound, sent[self.wid], remote)

    # ------------------------------------------------------------------
    @staticmethod
    def _execute_vectorized(
        workers: Sequence["SimWorker"],
        run: Sequence[int],
        qr: QueryRuntime,
        graph: DiGraph,
        assignment: np.ndarray,
    ) -> List[IterationResult]:
        """One fused pass of ``qr``'s kernel over the mailboxes of a run.

        Equal, member by member, to stepping the workers one after the
        other.  **Vertex ownership is disjoint across the run**: every
        message for a vertex sits in its owner's mailbox, so the fused
        state writes (``kstate``, ``scope_mask``) touch the cells the
        separate steps would, with the same values, and the stable
        (run position, vertex) sort keeps each vertex's messages in their
        mailbox order — which keeps ``np.add.reduceat`` (PageRank)
        bit-identical, not only the ``min``/``or`` combiners.  **Every
        per-task counter is a segment of the fused arrays**: executed
        vertices and visited edges by run position of the frontier,
        message counts by (source position, destination) of the sends —
        one ``bincount`` matrix whose row *i* holds member *i*'s ``local``
        count and ``remote`` cells.  The run's scope additions go to
        ``qr.activated`` as one chunk, not per member: the controller reads
        them only as a set.

        Counter-for-counter equivalent to the generic loop too: executed
        vertices and visited edges are the combined frontier, message
        counts are the raw (pre-combining) sends, so the virtual-time cost
        model charges both paths identically.
        """
        kernel = qr.kernel
        r = len(run)
        k = len(workers)
        boxes = [qr.mailboxes.pop(wid, None) or ArrayMailbox() for wid in run]

        # combine: one stable sort on the (run position, vertex) key; a lone
        # member's key is the vertex itself
        vertices, messages = ArrayMailbox.concat_all(boxes)
        if r == 1:
            vertices, messages = kernel.combine_arrays(vertices, messages)
            member_of = np.zeros(vertices.size, dtype=np.int64)
        else:
            n = qr.scope_mask.size
            keys = (np.arange(r) * n).repeat([len(box) for box in boxes]) + vertices
            keys, messages = kernel.combine_arrays(keys, messages)
            member_of, vertices = np.divmod(keys, n)

        indptr = graph.csr().indptr
        degrees = indptr[vertices + 1] - indptr[vertices]
        executed = np.bincount(member_of, minlength=r).tolist()
        edges = np.bincount(member_of, weights=degrees, minlength=r).tolist()

        # the run's scope additions, one chunk: the frontier is sorted by run
        # position, so they are in run order, each member's in vertex order
        newly = vertices[~qr.scope_mask[vertices]]
        if newly.size:
            qr.scope_mask[newly] = True
            qr.activated.append(newly)

        targets, out_messages, sources, contribs = kernel.step(
            graph, qr.kstate, vertices, messages, qr.agg_committed
        )
        # aggregator partials stay per worker: each member's contributions
        # are folded with the program's own reduce function (they are rare —
        # a target or tagged vertex improved — so this is a plain loop)
        for name, (positions, values) in contribs.items():
            by_member: Dict[int, List[Any]] = {}
            for member, value in zip(member_of[positions].tolist(), values.tolist()):
                by_member.setdefault(member, []).append(value)
            for member, member_values in by_member.items():
                contribute_partial(
                    qr.agg_partials, run[member], qr.agg_specs, name, tuple(member_values)
                )

        # count by (member, destination), route by destination alone.  The
        # sends are member-major (``sources`` is non-decreasing over a
        # frontier sorted by run position), so one stable sort on the
        # destination leaves each destination's chunk equal to what the
        # members, run one after the other, append to that mailbox
        owners = assignment[targets]
        # cell = member * k + destination; a lone member is row 0
        cells = owners if r == 1 else member_of[sources] * k + owners
        sent = np.bincount(cells, minlength=r * k).reshape(r, k).tolist()

        # one walk over the (member, destination) cells, row-major, replays
        # what the members run one after the other would do: member i pops
        # its inbound count *after* the members before it added their
        # next-iteration sends to it, and a mailbox nobody wrote to yet is
        # created by its first sender (dict order is what rebucket and
        # checkpoints walk).  Its non-zero remote cells, destination
        # ascending, are all the charging reads of a member's sends
        pending = qr.pending_remote_inbound
        next_boxes = qr.next_mailboxes
        results = []
        for wid, row, num_vertices, num_edges in zip(run, sent, executed, edges):
            workers[wid].vertex_executions += num_vertices
            inbound = pending.pop(wid, 0)
            remote = []
            for dest, count in enumerate(row):
                if count:
                    if dest not in next_boxes:
                        next_boxes[dest] = ArrayMailbox()
                    if dest != wid:
                        remote.append((dest, count))
                        pending[dest] = pending.get(dest, 0) + count
            results.append(
                _new_result(
                    IterationResult,
                    (num_vertices, int(num_edges), inbound, row[wid], remote),
                )
            )
        for dest, vchunk, mchunk in group_by_owner(owners, targets, out_messages):
            qr.deliver_array(dest, vchunk, mchunk)
        return results

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimWorker(wid={self.wid}, busy_until={self.busy_until:.6f})"

