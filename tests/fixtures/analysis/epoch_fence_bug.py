"""Distilled stale-dispatch bug (the PR 1/PR 8 unfenced-consumer class).

``FenceEngine`` has a real STOP/START boundary (``stopped`` is raised and
lowered across a barrier), so a ``task_ready`` produced *before* the STOP
can be consumed *after* the START — by which time the task's mailbox may
have been re-homed to another worker.  ``_on_task_ready`` applies the
task with no epoch or phase comparison anywhere on its path, so the stale
dispatch lands on the old owner.  The engine's fix redirects stale tasks
by comparing the payload's epoch against the live one; this fixture
preserves the unfenced variant so ``epoch-fence`` provably flags it (see
tests/test_analysis_protocol.py).

Lint this file directly to reproduce the finding::

    python -m repro.analysis tests/fixtures/analysis/epoch_fence_bug.py \
        --select epoch-fence     # exits 1
"""

from typing import Dict, List


class FenceEngine:
    def __init__(self, queue):
        self.queue = queue
        self.stopped = False
        self._held_tasks: List[int] = []
        self.mailboxes: Dict[int, float] = {}
        self._handlers = {
            "global_stop": self._on_global_stop,
            "global_start": self._on_global_start,
            "task_ready": self._on_task_ready,
        }

    def step(self):
        event = self.queue.pop()
        self._handlers[event.kind](event.time, event.payload)

    def submit(self, now, task):
        self.queue.schedule(now, "task_ready", task=task)

    def _on_global_stop(self, now, payload):
        self.stopped = True

    def _on_global_start(self, now, payload):
        self.stopped = False
        while self._held_tasks:
            self.queue.schedule(now, "task_ready", task=self._held_tasks.pop())

    def _on_task_ready(self, now, payload):
        # BUG distilled: a task produced before the STOP is applied after
        # the START with no epoch/phase guard — stale work lands on a
        # mailbox whose owner may have been re-homed across the barrier
        self.mailboxes[payload["task"]] = now
