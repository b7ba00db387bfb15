"""One run of one workload, in a process of its own.

``python3 -m benchmarks.spine.child <workload> <seed> <traced 0|1> <smoke 0|1>``
sets the workload up, runs the engine to quiescence, checks the answers and
prints one JSON record as the last line of its standard output.  A fresh
process per run makes ``peak_rss_mb`` that run's own and keeps one run's
heap out of the next one's timing; the parent (``runner.py``) aggregates.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time
from contextlib import nullcontext
from typing import Any, Dict

from . import oracle
from .metrics import end_to_end, layer_counts, layer_times
from .tracer import Tracer
from .workloads import WORKLOADS, build

__all__ = ["run_once", "TRACE_DIR"]

#: set-ups per run (one under ``--smoke``); ``setup_s`` is their median — the
#: first pays for lazy imports and cold caches — and the last one is run
SETUP_REPEATS = 5
TRACE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def run_once(workload_name: str, seed: int, traced: bool, smoke: bool) -> Dict[str, Any]:
    """Set up, run (under the tracer if ``traced``), check; returns the record."""
    workload = WORKLOADS[workload_name]
    setups = []
    built = None
    for _ in range(1 if smoke else SETUP_REPEATS):
        built = None  # one engine alive at a time, as in a single set-up
        gc.collect()
        built = build(workload, seed, smoke)
        setups.append(built.setup_s)

    tracer = Tracer()
    start = time.perf_counter()
    with tracer.installed() if traced else nullcontext():
        built.engine.run()
    wall_run_s = time.perf_counter() - start
    # before the answer check, whose scipy matrices are not the engine's memory
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    queries = built.queries.queries()
    unfinished = oracle.unfinished_queries(built.engine, queries)
    wrong = oracle.wrong_answers(built.engine, queries) if workload.immutable_graph else []
    record: Dict[str, Any] = {
        "workload": workload_name,
        "seed": seed,
        "traced": traced,
        "setup_s": setups,
        "wall_run_s": wall_run_s,
        "peak_rss_mb": peak_rss_mb,
        "submitted": len(queries),
        "unfinished": unfinished,
        "wrong": wrong,
        "answer_digest": oracle.answer_digest(built.engine, queries),
        "end_to_end": end_to_end(built),
        "layers": layer_counts(built),
    }
    if traced:
        record["layers"].update(layer_times(built, tracer))
        record["span_self_s"] = tracer.self_s
        os.makedirs(TRACE_DIR, exist_ok=True)
        record["trace_file"] = os.path.join(TRACE_DIR, f"trace_{workload_name}.json")
        tracer.write_chrome_trace(record["trace_file"], built.phases)
    return record


if __name__ == "__main__":
    name, seed_arg, traced_arg, smoke_arg = sys.argv[1:]
    print(json.dumps(run_once(name, int(seed_arg), traced_arg == "1", smoke_arg == "1")))
