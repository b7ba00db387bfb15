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
to the machine and network models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.engine.kernels import ArrayMailbox, contribute_partial, group_by_owner
from repro.engine.query import QueryRuntime
from repro.engine.vertex_program import ComputeContext
from repro.graph.digraph import DiGraph
from repro.simulation.cluster import MachineProfile

__all__ = ["SimWorker", "IterationResult"]


@dataclass
class IterationResult:
    """Counters produced by one (query, iteration, worker) compute task."""

    executed_vertices: int = 0
    visited_edges: int = 0
    local_messages: int = 0
    #: raw remote messages consumed from this worker's inbox (deserialization)
    remote_inbound: int = 0
    #: destination worker -> number of messages (post-combining)
    remote_messages: Dict[int, int] = field(default_factory=dict)
    #: newly activated vertices on this worker (scope additions)
    activated: List[int] = field(default_factory=list)


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
    def execute_iteration(
        self,
        qr: QueryRuntime,
        graph: DiGraph,
        assignment: np.ndarray,
    ) -> IterationResult:
        """Run the vertex function on every locally active vertex.

        Consumes this worker's current mailbox for the query; routes produced
        messages into ``qr.next_mailboxes`` (local targets) or returns them
        per destination worker (remote targets are merged into the runtime's
        next mailboxes too — the engine only needs the counts to charge
        network time).
        """
        result = IterationResult()
        result.remote_inbound = qr.pending_remote_inbound.pop(self.wid, 0)
        mailbox = qr.mailboxes.pop(self.wid, None)
        if not mailbox:
            return result
        if qr.kernel is not None:
            self._execute_vectorized(qr, graph, assignment, mailbox, result)
            self.vertex_executions += result.executed_vertices
            return result

        program = qr.query.program
        agg_partial = qr.agg_partials.setdefault(self.wid, {})
        for name in qr.agg_committed:
            agg_partial.setdefault(name, None)
        ctx = ComputeContext(graph, qr.agg_committed, agg_partial)

        for vertex, message in mailbox.items():
            if vertex not in qr.state:
                result.activated.append(vertex)
            ctx._reset(vertex, qr.iteration)
            old_state = qr.state.get(vertex)
            new_state = program.compute(ctx, vertex, old_state, message)
            qr.state[vertex] = new_state
            result.executed_vertices += 1
            result.visited_edges += graph.out_degree(vertex)
            for target, msg in ctx._drain():
                owner = int(assignment[target])
                qr.deliver(owner, target, msg, to_next=True)
                if owner == self.wid:
                    result.local_messages += 1
                else:
                    result.remote_messages[owner] = (
                        result.remote_messages.get(owner, 0) + 1
                    )
                    qr.pending_remote_inbound[owner] = (
                        qr.pending_remote_inbound.get(owner, 0) + 1
                    )

        self.vertex_executions += result.executed_vertices
        return result

    # ------------------------------------------------------------------
    def _execute_vectorized(
        self,
        qr: QueryRuntime,
        graph: DiGraph,
        assignment: np.ndarray,
        mailbox: ArrayMailbox,
        result: IterationResult,
    ) -> None:
        """Array-mailbox iteration through the program's QueryKernel.

        Counter-for-counter equivalent to the generic loop: executed
        vertices and visited edges are the combined frontier, message counts
        are the raw (pre-combining) sends, so the virtual-time cost model
        charges both paths identically.
        """
        kernel = qr.kernel
        vertices, messages = kernel.combine_arrays(*mailbox.concat())
        result.executed_vertices = int(vertices.size)
        indptr = graph.csr().indptr
        result.visited_edges = int((indptr[vertices + 1] - indptr[vertices]).sum())

        newly = vertices[~qr.scope_mask[vertices]]
        if newly.size:
            qr.scope_mask[newly] = True
            result.activated.extend(newly.tolist())

        agg_partial = qr.agg_partials.setdefault(self.wid, {})
        for name in qr.agg_committed:
            agg_partial.setdefault(name, None)

        targets, out_messages, contribs = kernel.step(
            graph, qr.kstate, vertices, messages, qr.agg_committed
        )
        for name, value in contribs.items():
            contribute_partial(agg_partial, name, value)

        for dest, vchunk, mchunk in group_by_owner(assignment, targets, out_messages):
            qr.deliver_array(dest, vchunk, mchunk)
            count = int(vchunk.size)
            if dest == self.wid:
                result.local_messages += count
            else:
                result.remote_messages[dest] = (
                    result.remote_messages.get(dest, 0) + count
                )
                qr.pending_remote_inbound[dest] = (
                    qr.pending_remote_inbound.get(dest, 0) + count
                )

    # ------------------------------------------------------------------
    def compute_duration(
        self,
        result: IterationResult,
        serialize_time_fn: Callable[[int, int], float],
        deserialize_time: float = 0.0,
    ) -> float:
        """CPU seconds of the iteration under the machine cost model.

        ``serialize_time_fn(dest_worker, count)`` supplies the sender-side
        serialization cost for a remote batch (depends on the link);
        ``deserialize_time`` is the receiver-side cost of the remote
        messages this task consumed from its inbox.
        """
        m = self.machine
        duration = (
            m.task_overhead_time
            + m.vertex_compute_time * result.executed_vertices
            + m.edge_compute_time * result.visited_edges
            + m.message_handling_time * result.local_messages
            + deserialize_time
        )
        for dest, count in result.remote_messages.items():
            duration += serialize_time_fn(dest, count)
        return duration

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimWorker(wid={self.wid}, busy_until={self.busy_until:.6f})"
