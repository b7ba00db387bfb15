"""Harness-side span tracer for the traced run.

The library under ``src/repro/`` carries no timers (its ``wall-clock`` lint
rule forbids them), so the per-layer numbers are taken from here: the public
entry points of each layer are replaced by timing wrappers for the duration
of one ``QGraphEngine.run()`` and put back afterwards.  Functions bound with
``from ... import`` are patched under the name *in the importing module*.

Every call is a span with a name, a start, an end and a parent.  A span's
self time is its duration minus the time its child spans cover, so the self
times of all spans add up to the duration of the root span (the wrapped
``QGraphEngine.run``).  Entry points that are called once per event or per
iteration (hundreds of thousands of times per run) keep only a call count
and a self-time total; the rest keep their individual spans, which
:meth:`Tracer.write_chrome_trace` writes out after the run.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

__all__ = ["Tracer", "PATCHES"]

#: (owner, attribute, span name, keep individual spans).  ``owner`` is a
#: module path or ``module:Class``; a trailing ``+`` also patches every
#: subclass in that module that defines the attribute itself.  The span
#: names are the stems of the per-layer metrics: ``<span>_s`` is the span's
#: self time and ``<span>_calls`` its call count.
PATCHES: Tuple[Tuple[str, str, str, bool], ...] = (
    ("repro.engine.engine:QGraphEngine", "run", "engine.run_self", True),
    ("repro.engine.worker:SimWorker", "execute_iteration", "engine.worker.execute_iteration", False),
    ("repro.engine.kernels:QueryKernel+", "step", "engine.kernels.step", False),
    ("repro.engine.worker", "group_by_owner", "engine.kernels.group_by_owner", False),
    ("repro.engine.query", "group_by_owner", "engine.kernels.group_by_owner", False),
    ("repro.engine.query:QueryRuntime", "deliver_array", "engine.query.deliver_array", False),
    ("repro.engine.query:QueryRuntime", "rebucket", "engine.query.rebucket", True),
    ("repro.engine.checkpoint:QueryCheckpoint", "capture", "engine.checkpoint.capture", True),
    ("repro.engine.checkpoint:QueryCheckpoint", "restore", "engine.checkpoint.restore", True),
    ("repro.engine.scheduler:Scheduler+", "add", "engine.scheduler.add", True),
    ("repro.engine.scheduler:Scheduler+", "pop", "engine.scheduler.pop", True),
    ("repro.simulation.events:EventQueue", "schedule", "simulation.events.schedule", False),
    ("repro.simulation.events:EventQueue", "pop", "simulation.events.pop", False),
    # apply_delta() is the engine's only way in; flush() runs inside it
    ("repro.graph.delta:MutableDiGraph", "apply_delta", "graph.delta.apply", True),
    ("repro.core.controller:Controller", "on_query_started", "core.controller.other", True),
    ("repro.core.controller:Controller", "on_iteration", "core.controller.on_iteration", False),
    ("repro.core.controller:Controller", "on_query_finished", "core.controller.other", True),
    ("repro.core.controller:Controller", "on_graph_mutation", "core.controller.other", True),
    ("repro.core.controller:Controller", "place_new_vertices", "core.controller.other", True),
    ("repro.core.controller:Controller", "set_down_workers", "core.controller.other", True),
    ("repro.core.controller:Controller", "should_trigger_qcut", "core.controller.should_trigger", False),
    ("repro.core.controller:Controller", "estimate_imbalance", "core.controller.estimate_imbalance", False),
    ("repro.core.controller:Controller", "begin_qcut", "core.controller.begin_qcut", True),
    ("repro.core.controller:Controller", "complete_qcut", "core.controller.complete_qcut_self", True),
    ("repro.core.controller", "iterated_local_search", "core.ils.search_self", True),
    ("repro.core.controller", "cluster_queries", "core.clustering.cluster_queries", True),
    ("repro.core.ils", "perturb", "core.perturbation.perturb", True),
    ("repro.core.ils", "local_search", "core.local_search.local_search", True),
)

#: spans whose return value feeds a counter: span name -> (counter, extractor)
_RESULT_COUNTERS: Dict[str, Tuple[str, Callable[[Any], float]]] = {
    "core.ils.search_self": ("core.ils.rounds", lambda result: result.rounds),
}

#: ``group_by_owner`` is a generator whose consumer calls back into the
#: engine between items; draining it inside the span keeps its time its own
_GENERATORS = frozenset({"group_by_owner"})


def _owners(spec: str, attribute: str) -> List[Any]:
    """The modules/classes a patch-table ``owner`` entry stands for."""
    with_subclasses = spec.endswith("+")
    module_path, _, class_name = spec.rstrip("+").partition(":")
    module = importlib.import_module(module_path)
    if not class_name:
        return [module]
    base = getattr(module, class_name)
    if not with_subclasses:
        return [base]
    return [
        cls
        for cls in vars(module).values()
        if isinstance(cls, type) and issubclass(cls, base) and attribute in vars(cls)
    ]


class Tracer:
    """Collects spans from the wrapped entry points of one run."""

    def __init__(self) -> None:
        #: individual spans: (name, start, end, index of the parent span or -1)
        self.spans: List[Any] = []
        #: span name -> summed self time in seconds
        self.self_s: Dict[str, float] = {}
        #: span name -> number of calls
        self.calls: Dict[str, int] = {}
        #: counters fed from return values (see ``_RESULT_COUNTERS``)
        self.counters: Dict[str, float] = {}
        #: open calls: [seconds covered by children, nearest kept span index]
        self._stack: List[List[Any]] = []

    # ------------------------------------------------------------------
    def _timed(self, name: str, fn: Callable[..., Any], keep: bool) -> Callable[..., Any]:
        stack, spans, self_s, calls = self._stack, self.spans, self.self_s, self.calls
        clock = time.perf_counter
        self_s.setdefault(name, 0.0)
        calls.setdefault(name, 0)
        counter = _RESULT_COUNTERS.get(name)
        if counter is not None:
            self.counters.setdefault(counter[0], 0.0)

        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1][1] if stack else -1
            frame = [0.0, parent]
            if keep:
                frame[1] = len(spans)
                spans.append(None)  # reserve the index so children can name it
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                self_s[name] += elapsed - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed
                if keep:
                    spans[frame[1]] = (name, start, end, parent)
            if counter is not None:
                self.counters[counter[0]] += counter[1](result)
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Replace every entry point in :data:`PATCHES` by a timing wrapper
        for the duration of the ``with`` block."""
        replaced: List[Tuple[Any, str, Any]] = []
        try:
            for spec, attribute, name, keep in PATCHES:
                for owner in _owners(spec, attribute):
                    original = vars(owner)[attribute]
                    kind = type(original) if isinstance(original, (classmethod, staticmethod)) else None
                    fn = original.__func__ if kind else original
                    if attribute in _GENERATORS:
                        fn = _drained(fn)
                    wrapper = self._timed(name, fn, keep)
                    setattr(owner, attribute, kind(wrapper) if kind else wrapper)
                    replaced.append((owner, attribute, original))
            yield self
        finally:
            for owner, attribute, original in reversed(replaced):
                setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    def write_chrome_trace(self, path: str, phases: List[Tuple[str, float, float]]) -> None:
        """Write the kept spans of a completed run (after the harness's own
        set-up ``phases``) in the Chrome trace-event format; the per-call
        entry points that kept no spans are summarised under ``otherData``."""
        origin = phases[0][1] if phases else self.spans[0][1]

        def event(name: str, start: float, end: float) -> Dict[str, Any]:
            return {"name": name, "ph": "X", "pid": 0, "tid": 0,
                    "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6}

        events = [event(*phase) for phase in phases]
        first_span = len(events)
        for name, start, end, parent in self.spans:
            events.append(event(name, start, end))
            # index into traceEvents of the span that made this call
            events[-1]["args"] = {"parent": first_span + parent if parent >= 0 else None}
        summary = {
            name: {"self_s": self.self_s[name], "calls": self.calls[name]}
            for name in sorted(self.self_s)
        }
        with open(path, "w") as handle:
            json.dump(
                {"traceEvents": events, "displayTimeUnit": "ms",
                 "otherData": {"self_time_by_span": summary}},
                handle,
            )


def _drained(generator_fn: Callable[..., Any]) -> Callable[..., Any]:
    def drained(*args: Any, **kwargs: Any) -> List[Any]:
        return list(generator_fn(*args, **kwargs))

    return drained
