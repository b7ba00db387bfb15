"""Distilled stale-barrier-ack generation bug (the PR 1/PR 4 class).

``AckEngine`` declares its barrier couple — acks in ``acked`` counted
against ``involved``, fenced by ``barrier_epoch`` — and ``_on_global_stop``
starts a fresh barrier generation by re-seeding both sets.  But it never
bumps the epoch, so an ack still in flight from the *previous* generation
carries a stamp that passes the ``_on_barrier_ack`` fence and completes a
barrier its worker never joined.  The engine's fix bumps ``barrier_epoch``
at every re-seed site (``reset_barrier_protocol``); this fixture
preserves the forgotten-bump variant so ``ack-completeness`` provably
flags it (see tests/test_analysis_protocol.py).

Lint this file directly to reproduce the finding::

    python -m repro.analysis tests/fixtures/analysis/ack_completeness_bug.py \
        --select ack-completeness     # exits 1
"""

from typing import Set

BARRIER_ACK_PROTOCOLS = (
    ("AckEngine.acked", "AckEngine.involved", "AckEngine.barrier_epoch"),
)


class AckEngine:
    def __init__(self, queue):
        self.queue = queue
        self.acked: Set[int] = set()
        self.involved: Set[int] = set()
        self.barrier_epoch = 0
        self._handlers = {
            "global_stop": self._on_global_stop,
            "barrier_ack": self._on_barrier_ack,
            "global_start": self._on_global_start,
        }

    def step(self):
        event = self.queue.pop()
        self._handlers[event.kind](event.time, event.payload)

    def _on_global_stop(self, now, payload):
        # BUG distilled: a fresh barrier generation is seeded without
        # bumping barrier_epoch — an in-flight ack stamped with the
        # previous generation still passes the epoch fence below
        self.involved = set(payload["workers"])
        self.acked = set()
        for worker in sorted(self.involved):
            self.queue.schedule(now + 1, "barrier_ack", worker=worker,
                                epoch=self.barrier_epoch)

    def _on_barrier_ack(self, now, payload):
        if payload["epoch"] != self.barrier_epoch:
            return
        self.acked.add(payload["worker"])
        if self.acked == self.involved:
            self.queue.schedule(now, "global_start")

    def _on_global_start(self, now, payload):
        # the START side is generation-correct: bump, then re-seed
        self.barrier_epoch += 1
        self.acked = set()
