"""Shared set-up of the engine suites.

The fault, churn, sanitizer, event-log and run-coalescing tests pin
fingerprints and digests of runs built from the same pieces: the Q-cut
controller configuration, the 4-city road network, a Hash-partitioned
engine on the ``M2`` cluster, the run fingerprint, an event queue that
logs every event it pops, and a controller that fires one scripted move
plan.  They live here once.
"""

import hashlib

from repro.core.api import MoveRequest
from repro.core.controller import Controller, ControllerConfig, MovePlan
from repro.engine.engine import EngineConfig, QGraphEngine
from repro.graph.road_network import generate_road_network
from repro.partitioning import HashPartitioner
from repro.simulation.cluster import make_cluster
from repro.simulation.events import EventQueue

__all__ = [
    "controller_config",
    "road_network",
    "build_engine",
    "fingerprint",
    "digest",
    "LoggedQueue",
    "ScriptedController",
]


def controller_config(**overrides):
    base = dict(
        mu=0.5,
        phi=0.9,
        delta=0.25,
        max_tracked_queries=64,
        qcut_compute_time=0.002,
        qcut_cooldown=0.01,
        min_queries_for_qcut=6,
        ils_rounds=30,
        seed=0,
    )
    base.update(overrides)
    return ControllerConfig(**base)


def road_network():
    return generate_road_network(
        num_cities=4,
        num_urban_vertices=1200,
        seed=13,
        region_size=60.0,
        zipf_exponent=0.5,
    )


def build_engine(graph, k=4, faults=None, **config):
    """A Hash-partitioned engine on ``k`` ``M2`` workers under
    :func:`controller_config`; ``config`` are :class:`EngineConfig` fields."""
    return QGraphEngine(
        graph,
        make_cluster("M2", k),
        HashPartitioner(seed=0).partition(graph, k),
        controller=Controller(k, controller_config()),
        config=EngineConfig(**config),
        faults=faults,
    )


def fingerprint(engine, trace):
    """Per-query start/end times and iterations, repartitions, message and
    barrier counters, and the event count of a finished run."""
    return (
        {
            qid: (r.start_time, r.end_time, r.iterations, r.local_iterations)
            for qid, r in trace.queries.items()
        },
        [(r.time, r.moved_vertices, r.num_moves) for r in trace.repartitions],
        trace.local_messages,
        trace.remote_messages,
        trace.remote_batches,
        trace.barrier_acks,
        trace.barrier_releases,
        engine._events_processed,
    )


def digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


class LoggedQueue(EventQueue):
    """Records every popped event (followers are popped through ``pop``)."""

    def __init__(self):
        super().__init__()
        self.log = []

    def pop(self):
        event = super().pop()
        if event is not None:
            scalars = sorted(
                (key, value)
                for key, value in event.payload.items()
                if isinstance(value, (int, float, bool, type(None)))
            )
            self.log.append((event.time, event.seq, event.kind, scalars))
        return event


class ScriptedController(Controller):
    """Fires one scripted move plan at the first adaptation opportunity."""

    def __init__(self, k, vertices, src=0, dst=1):
        super().__init__(k)
        self._scripted = MoveRequest(src=src, dst=dst, vertices=vertices)
        self._fired = False

    def should_trigger_qcut(self, now, assignment=None):
        return not self._fired and not self._qcut_running

    def begin_qcut(self, assignment, now, saturated=True):
        self._qcut_running = True
        return 5.0e-4

    def complete_qcut(self, now):
        self._qcut_running = False
        self._fired = True
        self.last_qcut_time = now
        plan = MovePlan(moves=[self._scripted], cost_before=1.0, cost_after=0.5)
        plan.involved_workers = frozenset(
            {self._scripted.src, self._scripted.dst}
        )
        return plan
