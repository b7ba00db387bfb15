"""Distilled finish-path state leak (the PR 2/PR 5 scope-store-leak class).

``LeakEngine`` keys three structures by query id; ``_finish_query``
releases ``running`` and ``progress`` but forgets ``partials`` — every
finished query's partial results stay resident forever, an unbounded leak
across a long multi-tenant run, and a reused query id would even see the
previous query's data.  The engine-side ``_activated`` leak fixed this PR
had exactly this shape; the fixture preserves it so ``finish-leak``
provably flags it (see tests/test_analysis_lifecycle.py).

Lint this file directly to reproduce the finding::

    python -m repro.analysis tests/fixtures/analysis/finish_leak_bug.py \
        --select finish-leak     # exits 1
"""

from typing import Dict, List, Set


class LeakEngine:
    def __init__(self, queue):
        self.queue = queue
        self.running: Set[int] = set()
        #: query -> latest iteration timestamp
        self.progress: Dict[int, float] = {}
        #: query -> accumulated partial results
        self.partials: Dict[int, List[float]] = {}
        self._handlers = {"tick": self._on_tick}

    def step(self):
        event = self.queue.pop()
        self._handlers[event.kind](event.time, event.payload)

    def _on_tick(self, now, payload):
        query = payload["query"]
        self.progress[query] = now
        self.partials.setdefault(query, []).append(payload["value"])
        if payload["done"]:
            self._finish_query(query)

    def _finish_query(self, query):
        self.running.discard(query)
        self.progress.pop(query, None)
        # BUG distilled: self.partials[query] is never released — per-query
        # state survives the query's whole lifecycle
