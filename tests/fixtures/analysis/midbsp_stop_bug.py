"""Distilled mid-BSP STOP race (the PR 5 era bug, pre barrier-aligned STOP).

A ``global_stop`` tears down superstep state while a ``bsp_compute``
event for the in-flight superstep can sit in the queue at the *same*
virtual timestamp: whichever handler pops first wins, and neither tests
a pause/epoch fence, so the outcome is decided by schedule order alone.
The engine fixed this by deferring the STOP to the superstep barrier;
this fixture preserves the unfenced shape so ``virtual-time-race``
provably flags it (see tests/test_analysis_project.py).

Lint this file directly to reproduce the finding::

    python -m repro.analysis tests/fixtures/analysis/midbsp_stop_bug.py \
        --select virtual-time-race     # exits 1
"""


class MiniBspEngine:
    def __init__(self, queue):
        self.queue = queue
        self.superstep = 0
        self.frontier = {}
        self.assignment = {}
        self._handlers = {
            "bsp_compute": self._on_bsp_compute,
            "global_stop": self._on_global_stop,
        }

    def step(self):
        event = self.queue.pop()
        self._handlers[event.kind](event.time, event.payload)

    def _on_bsp_compute(self, now, payload):
        # advances the shared superstep state with no pause fence
        self.frontier[payload["worker"]] = payload["messages"]
        self.superstep += 1
        self.queue.schedule(now, "bsp_compute", worker=payload["worker"])

    def _on_global_stop(self, now, payload):
        # tears down the same state, equally unfenced: a bsp_compute
        # already queued at this timestamp may run against the torn-down
        # frontier (or clobber the new assignment), depending only on
        # which event was scheduled first
        self.frontier = {}
        self.superstep = 0
        self.assignment = dict(payload["assignment"])
