"""Distilled torn invariant-group update (recovery-visible partial state).

``assignment`` and ``mailboxes`` form a declared invariant couple: every
mailbox must be bucketed under the worker the assignment names, or
message conservation breaks.  ``_on_rebalance`` commits the new
assignment first and only *then* validates the plan — the ``raise`` in
between leaves the assignment re-homed while the mailboxes still point at
the old owners, exactly the partial state a recovery (or sanitizer sweep)
would observe.  The pre-fix ``_do_recovery`` had this shape (assignment
re-homed before the no-checkpoint check); the fixture preserves it so
``atomic-mutation`` provably flags it (see tests/test_analysis_lifecycle.py).

Lint this file directly to reproduce the finding::

    python -m repro.analysis tests/fixtures/analysis/atomic_mutation_bug.py \
        --select atomic-mutation     # exits 1
"""

from typing import Dict

STATE_INVARIANT_GROUPS = (
    ("AtomEngine.assignment", "AtomEngine.mailboxes"),
)


class AtomEngine:
    def __init__(self, queue):
        self.queue = queue
        self.assignment: Dict[int, int] = {}
        self.mailboxes: Dict[int, Dict[int, float]] = {}
        self._handlers = {"rebalance": self._on_rebalance}

    def step(self):
        event = self.queue.pop()
        self._handlers[event.kind](event.time, event.payload)

    def _on_rebalance(self, now, payload):
        # first half of the couple commits...
        for vertex, owner in payload["moves"]:
            self.assignment[vertex] = owner
        # BUG distilled: ...then a validation that can abort *between* the
        # two writes — the assignment is re-homed, the mailboxes are not
        if not payload["plan_ok"]:
            raise RuntimeError("rebalance rejected mid-move")
        self.mailboxes = self._rebucket()

    def _rebucket(self):
        fresh: Dict[int, Dict[int, float]] = {}
        for box in self.mailboxes.values():
            for vertex, message in box.items():
                fresh.setdefault(self.assignment[vertex], {})[vertex] = message
        return fresh
