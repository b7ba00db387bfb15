"""Distilled stale-barrier-ack bug (the PR 7 recovery-era shape).

``_on_task_ready`` schedules the worker's barrier ack and *then*
rewrites the ack bookkeeping the ack handler reads — the scheduled event
observes post-reset state, so the re-issued ack either double-counts or
completes a barrier generation it no longer belongs to.  The engine's
fix stamps acks with a ``barrier_epoch`` bumped *before* dispatch; this
fixture preserves the mutate-after-schedule ordering so
``effect-after-schedule`` provably flags it.

Lint this file directly to reproduce the finding::

    python -m repro.analysis tests/fixtures/analysis/stale_barrier_ack_bug.py \
        --select effect-after-schedule     # exits 1
"""


class MiniBarrierController:
    def __init__(self, queue):
        self.queue = queue
        self.barrier_epoch = 0
        self.acked = set()
        self.involved = set()
        self._handlers = {
            "task_ready": self._on_task_ready,
            "barrier_ack": self._on_barrier_ack,
        }

    def step(self):
        event = self.queue.pop()
        self._handlers[event.kind](event.time, event.payload)

    def _on_task_ready(self, now, payload):
        self.queue.schedule(
            now + 1, "barrier_ack", worker=payload["worker"], epoch=self.barrier_epoch
        )
        # BUG (distilled): the bookkeeping the scheduled ack will be
        # counted against is rewritten after the schedule — the ack runs
        # against a barrier membership it was never issued for
        self.acked = set()
        self.involved = {payload["worker"]}

    def _on_barrier_ack(self, now, payload):
        if payload["epoch"] != self.barrier_epoch:
            return
        self.acked.add(payload["worker"])
        if self.acked == self.involved:
            self.barrier_epoch += 1
