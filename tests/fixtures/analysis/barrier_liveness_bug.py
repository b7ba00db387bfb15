"""Distilled terminal waiting state (the PR 4 stranded-barrier shape).

``_on_task_ready`` parks tasks arriving under a STOP into
``_held_tasks``, and ``_on_global_start`` duly lowers the stop flag —
but nothing ever drains the parked buffer, so every task that landed
during the barrier is stranded forever and the queries waiting on them
never finish.  The real engine's START handler replays its held buffers
verbatim; this fixture preserves the forgotten-replay variant so
``barrier-liveness`` provably flags it (see
tests/test_analysis_protocol.py).

Lint this file directly to reproduce the finding::

    python -m repro.analysis tests/fixtures/analysis/barrier_liveness_bug.py \
        --select barrier-liveness     # exits 1
"""

from typing import Dict, List


class ParkEngine:
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

    def begin_stop(self, now):
        self.queue.schedule(now, "global_stop")

    def _on_global_stop(self, now, payload):
        self.stopped = True
        self.queue.schedule(now + 1, "global_start")

    def _on_global_start(self, now, payload):
        # BUG distilled: lowers the stop flag but never replays the
        # parked buffer — tasks held across the barrier wait forever
        self.stopped = False

    def _on_task_ready(self, now, payload):
        if self.stopped:
            self._held_tasks.append(payload["task"])
            return
        self.mailboxes[payload["task"]] = now
