"""Distilled checkpoint-completeness gap (the contract PR 7 never checked).

``GapRuntime`` carries two handler-written per-query fields, but
``GapCheckpoint.capture`` copies only one of them: after a crash the
restored query resumes with a stale ``frontier``, silently diverging from
the fault-free run.  The real engine's ``QueryCheckpoint`` enumerates its
runtime's fields by hand in exactly this shape — this fixture preserves
the one-field-forgotten variant so ``checkpoint-gap`` provably flags it
(see tests/test_analysis_lifecycle.py).

Lint this file directly to reproduce the finding::

    python -m repro.analysis tests/fixtures/analysis/checkpoint_gap_bug.py \
        --select checkpoint-gap     # exits 1
"""

from typing import Dict


class GapRuntime:
    def __init__(self):
        self.cursor: Dict[int, int] = {}
        self.frontier: Dict[int, int] = {}


class GapCheckpoint:
    def __init__(self):
        self.cursor = {}

    @classmethod
    def capture(cls, qr: "GapRuntime"):
        ck = cls()
        ck.cursor = dict(qr.cursor)
        # BUG distilled: qr.frontier is handler-written per-query state,
        # but capture never reads it — lost across crash recovery
        return ck

    def restore(self, qr: "GapRuntime"):
        qr.cursor = dict(self.cursor)


class GapEngine:
    def __init__(self, queue):
        self.queue = queue
        self.runtimes: Dict[int, GapRuntime] = {}
        self._handlers = {"advance": self._on_advance}

    def step(self):
        event = self.queue.pop()
        self._handlers[event.kind](event.time, event.payload)

    def _on_advance(self, now, payload):
        qr = self.runtimes[payload["query"]]
        qr.cursor[payload["vertex"]] = now
        qr.frontier[payload["vertex"]] = payload["hops"]
