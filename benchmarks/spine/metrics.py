"""The metric catalogue and how each value is taken from a finished run.

Two clocks, never mixed: ``vt_*`` metrics are *simulated* time — what the
modelled cluster would take — and repeat bit-exactly for the same inputs;
every other time is *host* time — what the simulator takes on this machine
— and carries noise.  ``BENCHMARK.json`` at the repository root lists the
same names; ``test_spine.py`` keeps the two in step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graph.metrics import edge_cut, vertex_balance
from repro.simulation.tracing import QueryRecord

from .tracer import Tracer
from .workloads import NUM_WORKERS, Built

__all__ = ["EndToEnd", "END_TO_END", "PER_LAYER", "end_to_end", "layer_counts", "layer_times"]


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    clock: str  # "host" | "virtual" | "-"
    better: str
    #: share of the parent's median, over the driver's seeds, by which the
    #: metric may worsen from one commit to the next; at least three times
    #: the spread between seeds measured when the workloads were sized, and
    #: at most the 0.25 the driver allows (``None``: reported, not gated —
    #: the metric can legitimately be 0)
    bound: Optional[float]


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "host", "lower", 0.25),
    EndToEnd("wall_run_s", "s", "host", "lower", 0.25),
    EndToEnd("peak_rss_mb", "MiB", "host", "lower", 0.10),
    EndToEnd("vt_makespan_s", "s", "virtual", "lower", 0.25),
    EndToEnd("vt_latency_p50_ms", "ms", "virtual", "lower", 0.25),
    EndToEnd("vt_latency_p95_ms", "ms", "virtual", "lower", 0.25),
    EndToEnd("vt_locality", "ratio", "virtual", "higher", 0.15),
    EndToEnd("vt_stall_s", "s", "virtual", "lower", None),
    EndToEnd("failed_frac", "ratio", "-", "lower", None),
)

#: (name, unit, better).  ``*_s`` and ``*_calls`` of a traced entry point are
#: the self time and call count of the span of that name (tracer.PATCHES);
#: the rest are counts the library keeps itself.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    # graph
    ("graph.build_s", "s", "lower"),
    ("graph.delta.apply_s", "s", "lower"),
    ("graph.delta.apply_calls", "count", "lower"),
    ("graph.delta.mutations", "count", "higher"),
    # partitioning
    ("partitioning.partition_s", "s", "lower"),
    ("partitioning.edge_cut_frac", "ratio", "lower"),
    ("partitioning.vertex_imbalance", "ratio", "lower"),
    # workload
    ("workload.generate_s", "s", "lower"),
    ("workload.submit_s", "s", "lower"),
    # simulation
    ("simulation.events.schedule_s", "s", "lower"),
    ("simulation.events.pop_s", "s", "lower"),
    ("simulation.events.count", "count", "lower"),
    ("simulation.network.local_messages", "count", "higher"),
    ("simulation.network.remote_messages", "count", "lower"),
    ("simulation.network.remote_batches", "count", "lower"),
    ("simulation.faults.dropped_messages", "count", "lower"),
    ("simulation.faults.control_retries", "count", "lower"),
    ("simulation.faults.lost_computes", "count", "lower"),
    # engine
    ("engine.construct_s", "s", "lower"),
    ("engine.run_self_s", "s", "lower"),
    ("engine.events", "count", "lower"),
    ("engine.us_per_event", "us", "lower"),
    ("engine.worker.execute_iteration_s", "s", "lower"),
    ("engine.worker.execute_iteration_calls", "count", "lower"),
    ("engine.worker.executed_vertices", "count", "lower"),
    ("engine.kernels.step_s", "s", "lower"),
    ("engine.kernels.group_by_owner_s", "s", "lower"),
    ("engine.query.deliver_array_s", "s", "lower"),
    ("engine.query.rebucket_s", "s", "lower"),
    ("engine.query.rebucket_calls", "count", "lower"),
    ("engine.scheduler.add_s", "s", "lower"),
    ("engine.scheduler.pop_s", "s", "lower"),
    ("engine.scheduler.admission_wait_p95_ms", "ms", "lower"),
    ("engine.scheduler.backlog_max", "count", "lower"),
    ("engine.checkpoint.capture_s", "s", "lower"),
    ("engine.checkpoint.capture_calls", "count", "lower"),
    ("engine.checkpoint.restore_s", "s", "lower"),
    ("engine.checkpoint.restore_calls", "count", "lower"),
    ("engine.barriers.local_iteration_frac", "ratio", "higher"),
    ("engine.barriers.acks", "count", "lower"),
    ("engine.barriers.releases", "count", "lower"),
    ("engine.recovery.stall_s", "s", "lower"),
    ("engine.recovery.iterations_rolled_back", "count", "lower"),
    ("engine.recovery.detection_latency_s", "s", "lower"),
    # core
    ("core.controller.on_iteration_s", "s", "lower"),
    ("core.controller.should_trigger_s", "s", "lower"),
    ("core.controller.estimate_imbalance_s", "s", "lower"),
    ("core.controller.begin_qcut_s", "s", "lower"),
    ("core.controller.complete_qcut_self_s", "s", "lower"),
    ("core.controller.other_s", "s", "lower"),
    ("core.controller.qcut_runs", "count", "lower"),
    ("core.ils.search_self_s", "s", "lower"),
    ("core.ils.rounds", "count", "lower"),
    ("core.perturbation.perturb_s", "s", "lower"),
    ("core.perturbation.perturb_calls", "count", "lower"),
    ("core.local_search.local_search_s", "s", "lower"),
    ("core.local_search.local_search_calls", "count", "lower"),
    ("core.clustering.cluster_queries_s", "s", "lower"),
    ("core.repartitions", "count", "lower"),
    ("core.moved_vertices", "count", "lower"),
    ("core.qcut_useful_frac", "ratio", "higher"),
    ("core.cost_reduction_mean", "ratio", "higher"),
    ("core.imbalance_mean", "ratio", "lower"),
    ("core.repartition_stall_s", "s", "lower"),
    # the tracer itself
    ("trace_overhead_frac", "ratio", "lower"),
)

#: per-layer ``*_calls`` metrics, taken from the span of the same stem
_CALL_METRICS = tuple(name for name, _u, _b in PER_LAYER if name.endswith("_calls"))


def _arrived(built: Built, finished: List[QueryRecord]) -> np.ndarray:
    arrivals = {query.query_id: t for query, t in built.queries.entries}
    return np.array([arrivals[q.query_id] for q in finished])


def _due(built: Built, finished: List[QueryRecord]) -> np.ndarray:
    """When each query was due to start.

    On the open-loop workload a query is due when it *arrives*, so the wait
    for admission counts against it; the batch workloads are closed loops of
    ``MAX_PARALLEL`` virtual clients, where a query is due when a client
    picks it up, i.e. at admission.
    """
    if built.workload.open_loop:
        return _arrived(built, finished)
    return np.array([q.start_time for q in finished])


def end_to_end(built: Built) -> Dict[str, float]:
    """The virtual-time end-to-end metrics of a finished run, plus the
    sample count behind the latency percentiles (latency is
    ``end_time - due``, see :func:`_due`)."""
    trace = built.trace
    finished = built.trace.finished_queries()
    ended = np.array([q.end_time for q in finished])
    latency_ms = (ended - _due(built, finished)) * 1e3
    return {
        "vt_makespan_s": trace.makespan(),
        "vt_latency_p50_ms": float(np.percentile(latency_ms, 50)),
        "vt_latency_p95_ms": float(np.percentile(latency_ms, 95)),
        "vt_locality": trace.mean_locality(),
        "vt_stall_s": trace.total_repartition_stall() + trace.total_recovery_stall(),
        "latency_samples": len(finished),
    }


def _backlog_max(arrivals: np.ndarray, starts: np.ndarray) -> int:
    """Most queries ever waiting for admission at once."""
    times = np.concatenate([arrivals, starts])
    step = np.concatenate([np.ones_like(arrivals), -np.ones_like(starts)])
    # at equal times a start sorts before an arrival, so a query admitted
    # the instant it arrives never counts as waiting
    order = np.lexsort((step, times))
    return int(max(np.cumsum(step[order]).max(), 0))


def layer_counts(built: Built) -> Dict[str, float]:
    """Per-layer counts and ratios the library keeps itself (any run)."""
    trace, engine, controller = built.trace, built.engine, built.controller
    finished = built.trace.finished_queries()
    started = np.array([q.start_time for q in finished])
    iterations = sum(q.iterations for q in finished)
    repartitions = trace.repartitions
    reductions = [1.0 - r.cost_after / r.cost_before for r in repartitions if r.cost_before > 0]
    imbalance = trace.mean_workload_imbalance(NUM_WORKERS)
    initial_graph = built.road_network.graph
    return {
        "graph.delta.mutations": sum(
            c.inserted_edges + c.deleted_edges + c.updated_weights
            + c.added_vertices + c.removed_vertices
            for c in trace.churn_events
        ),
        "partitioning.edge_cut_frac": (
            edge_cut(initial_graph, built.assignment) / initial_graph.num_edges
        ),
        "partitioning.vertex_imbalance": (
            vertex_balance(initial_graph, built.assignment, NUM_WORKERS) - 1.0
        ),
        "simulation.network.local_messages": trace.local_messages,
        "simulation.network.remote_messages": trace.remote_messages,
        "simulation.network.remote_batches": trace.remote_batches,
        "simulation.faults.dropped_messages": trace.dropped_batches,
        "simulation.faults.control_retries": trace.control_retries,
        "simulation.faults.lost_computes": trace.lost_computes,
        "engine.events": engine._events_processed,  # the engine has no public count
        "engine.worker.executed_vertices": sum(w.vertex_executions for w in engine.workers),
        "engine.scheduler.admission_wait_p95_ms": float(
            np.percentile((started - _due(built, finished)) * 1e3, 95)
        ),
        "engine.scheduler.backlog_max": _backlog_max(_arrived(built, finished), started),
        "engine.barriers.local_iteration_frac": (
            sum(q.local_iterations for q in finished) / iterations if iterations else 0.0
        ),
        "engine.barriers.acks": trace.barrier_acks,
        "engine.barriers.releases": trace.barrier_releases,
        "engine.recovery.stall_s": trace.total_recovery_stall(),
        "engine.recovery.iterations_rolled_back": sum(
            r.iterations_rolled_back for r in trace.recoveries
        ),
        "engine.recovery.detection_latency_s": max(
            (r.detection_latency for r in trace.recoveries), default=0.0
        ),
        "core.controller.qcut_runs": controller.qcut_count,
        "core.repartitions": len(repartitions),
        "core.moved_vertices": sum(r.moved_vertices for r in repartitions),
        "core.qcut_useful_frac": (
            len(repartitions) / controller.qcut_count if controller.qcut_count else 0.0
        ),
        "core.cost_reduction_mean": float(np.mean(reductions)) if reductions else 0.0,
        "core.imbalance_mean": 0.0 if np.isnan(imbalance) else imbalance,
        "core.repartition_stall_s": trace.total_repartition_stall(),
    }


def layer_times(built: Built, tracer: Tracer) -> Dict[str, float]:
    """Per-layer host times: set-up phases from the harness's own timers,
    the rest self times (and call counts) of the traced run's spans."""
    out = {f"{name}_s": seconds for name, seconds in built.phase_seconds().items()}
    out.update({f"{name}_s": seconds for name, seconds in tracer.self_s.items()})
    out.update({name: tracer.calls[name[: -len("_calls")]] for name in _CALL_METRICS})
    out.update(tracer.counters)
    out["simulation.events.count"] = tracer.calls["simulation.events.schedule"]
    return out
