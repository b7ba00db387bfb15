"""Distilled event-kind closure holes (typo'd kind + dead handler).

A kind missing from the declared ``kind -> handler`` table raises only
when its event fires — a typo in a schedule site passes every run that
never reaches it, so the lint catches it first.  The mirror hole is a
table entry no schedule site ever produces: dead protocol surface that
reads as load-bearing.  ``_on_advance`` here schedules the typo'd
``"compute_dne"`` (not in the table) while the real ``"compute_done"``
cleanup handler is never produced — both directions of
``event-kind-closure`` provably flag it (see
tests/test_analysis_protocol.py).

Lint this file directly to reproduce the findings::

    python -m repro.analysis tests/fixtures/analysis/event_kind_closure_bug.py \
        --select event-kind-closure     # exits 1
"""

from typing import Dict


class ClosureEngine:
    def __init__(self, queue):
        self.queue = queue
        self.frontier: Dict[int, float] = {}
        self._handlers = {
            "advance": self._on_advance,
            "compute_done": self._on_compute_done,
        }

    def step(self):
        event = self.queue.pop()
        self._handlers[event.kind](event.time, event.payload)

    def submit(self, now, vertex):
        self.queue.schedule(now, "advance", vertex=vertex)

    def _on_advance(self, now, payload):
        self.frontier[payload["vertex"]] = now
        # BUG distilled: typo'd kind — "compute_dne" is not in the table,
        # so the dispatch raises when the event fires
        self.queue.schedule(now + 1, "compute_dne", vertex=payload["vertex"])

    def _on_compute_done(self, now, payload):
        # BUG distilled: the intended cleanup handler is reachable from
        # no schedule site — dead protocol surface
        self.frontier.pop(payload["vertex"], None)
