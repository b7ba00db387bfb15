"""Barrier-aligned per-query checkpoints.

Pregel-style fault tolerance (Malewicz et al. §4.2) adapted to the
multi-query engine: at configurable barrier intervals
(``EngineConfig.checkpoint_interval``) the engine snapshots each query's
complete logical state — the dense kernel buffers with their scope mask,
both mailbox generations, aggregator commits, and the iteration counter.
A checkpoint is everything needed to replay the query from that barrier on
a *different* vertex assignment: restore copies the buffers back, re-homes
the mailboxes with :meth:`QueryRuntime.rebucket`, and resets the barrier
protocol with an epoch bump so in-flight pre-crash traffic is fenced out.

Checkpoints are aligned to barriers on purpose: at a barrier the query has
no in-flight compute and ``next_mailboxes`` has just been rotated away, so
the snapshot is a consistent cut without any marker protocol.

Timing is charged by the engine (each involved worker is occupied for
``repro.engine.engine.CHECKPOINT_COST``); this module is purely logical state.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.engine.kernels import ArrayMailbox, copy_kernel_state
from repro.engine.query import QueryRuntime

__all__ = ["QueryCheckpoint", "copy_mailboxes", "mailbox_sizes"]


def copy_mailboxes(boxes: Dict[int, ArrayMailbox]) -> Dict[int, ArrayMailbox]:
    """A ``{worker: mailbox}`` map with every box cloned chunk by chunk."""
    return {worker: box.clone() for worker, box in boxes.items()}


def mailbox_sizes(boxes: Dict[int, ArrayMailbox]) -> Dict[int, int]:
    """Messages per worker — used to size the checkpoint-write cost."""
    return {worker: len(box) for worker, box in boxes.items()}


class QueryCheckpoint:
    """One consistent snapshot of a :class:`QueryRuntime` at a barrier."""

    __slots__ = (
        "iteration",
        "mailboxes",
        "next_mailboxes",
        "pending_remote_inbound",
        "agg_committed",
        "kstate",
        "scope_mask",
        "fingerprint",
    )

    def __init__(
        self,
        iteration: int,
        mailboxes: Dict[int, ArrayMailbox],
        next_mailboxes: Dict[int, ArrayMailbox],
        pending_remote_inbound: Dict[int, int],
        agg_committed: Dict[str, Any],
        kstate: Any,
        scope_mask: np.ndarray,
        fingerprint: Optional[Tuple[Any, ...]] = None,
    ) -> None:
        self.iteration = iteration
        self.mailboxes = mailboxes
        self.next_mailboxes = next_mailboxes
        self.pending_remote_inbound = pending_remote_inbound
        self.agg_committed = agg_committed
        self.kstate = kstate
        self.scope_mask = scope_mask
        #: optional content fingerprint stamped by the sanitizer at capture;
        #: recovery re-checks it after restore (recovery-conservation)
        self.fingerprint = fingerprint

    # ------------------------------------------------------------------
    @classmethod
    def capture(cls, qr: QueryRuntime) -> "QueryCheckpoint":
        """Snapshot ``qr`` at its current barrier."""
        return cls(
            iteration=qr.iteration,
            mailboxes=copy_mailboxes(qr.mailboxes),
            next_mailboxes=copy_mailboxes(qr.next_mailboxes),
            pending_remote_inbound=dict(qr.pending_remote_inbound),
            agg_committed=dict(qr.agg_committed),
            kstate=copy_kernel_state(qr.kstate),
            scope_mask=qr.scope_mask.copy(),
        )

    def message_count(self) -> int:
        """Total checkpointed messages (sizing the write cost)."""
        return sum(mailbox_sizes(self.mailboxes).values()) + sum(
            mailbox_sizes(self.next_mailboxes).values()
        )

    # ------------------------------------------------------------------
    def restore(self, qr: QueryRuntime, assignment: np.ndarray) -> int:
        """Roll ``qr`` back to this checkpoint on the given assignment.

        The checkpoint itself stays intact (copies go out, not references),
        so the same checkpoint can serve repeated recoveries.  Mailboxes are
        re-homed to the post-crash ``assignment`` — the simulation analogue
        of reloading partitions from stable storage onto their new owners.
        Returns the number of iterations rolled back.
        """
        rolled = qr.iteration - self.iteration
        qr.iteration = self.iteration
        qr.mailboxes = copy_mailboxes(self.mailboxes)
        qr.next_mailboxes = copy_mailboxes(self.next_mailboxes)
        qr.pending_remote_inbound = dict(self.pending_remote_inbound)
        qr.agg_committed = dict(self.agg_committed)
        qr.kstate = copy_kernel_state(self.kstate)
        qr.scope_mask = self.scope_mask.copy()
        qr.rebucket(assignment)
        qr.reset_barrier_protocol()
        return rolled
