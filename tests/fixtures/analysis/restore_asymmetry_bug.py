"""Distilled capture/restore asymmetry — both directions.

``SymCheckpoint.capture`` snapshots ``cursor`` and ``budget``, but
``restore`` only writes ``cursor`` back: the captured ``budget`` is dead
weight and recovery resumes with the post-crash value (captured but never
restored).  ``restore`` additionally installs ``qr.phase`` from a
checkpoint slot that ``capture`` never fills — stale default data
(restored but never captured).  Dropping one ``restore`` line from the
real ``QueryCheckpoint`` produces exactly the first shape; this fixture
preserves both so ``restore-asymmetry`` provably flags them (see
tests/test_analysis_lifecycle.py).

Lint this file directly to reproduce the findings::

    python -m repro.analysis tests/fixtures/analysis/restore_asymmetry_bug.py \
        --select restore-asymmetry     # exits 1
"""

from typing import Dict


class SymRuntime:
    def __init__(self):
        self.cursor: Dict[int, int] = {}
        self.budget: Dict[int, float] = {}
        self.phase = "seed"


class SymCheckpoint:
    def __init__(self):
        self.cursor = {}
        self.budget = {}
        self.phase = ""

    @classmethod
    def capture(cls, qr: "SymRuntime"):
        ck = cls()
        ck.cursor = dict(qr.cursor)
        ck.budget = dict(qr.budget)
        # note: ck.phase is never filled from qr
        return ck

    def restore(self, qr: "SymRuntime"):
        qr.cursor = dict(self.cursor)
        # BUG distilled (captured-not-restored): self.budget never copied back
        # BUG distilled (restored-not-captured): installs an uncaptured slot
        qr.phase = str(self.phase)


class SymEngine:
    def __init__(self, queue):
        self.queue = queue
        self.runtimes: Dict[int, SymRuntime] = {}
        self._handlers = {"charge": self._on_charge}

    def step(self):
        event = self.queue.pop()
        self._handlers[event.kind](event.time, event.payload)

    def _on_charge(self, now, payload):
        qr = self.runtimes[payload["query"]]
        qr.cursor[payload["vertex"]] = now
        qr.budget[payload["vertex"]] = payload["cost"]
