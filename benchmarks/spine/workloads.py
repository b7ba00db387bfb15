"""The pinned workloads of the spine and their timed set-up.

Every parameter is fixed here; ``seed`` is the only input that changes what
a workload contains.  Nothing is read from the environment: the graph scale
is passed explicitly (``REPRO_SCALE`` cannot resize a workload) and the
engine's sanitizer is switched off in code.

What ``seed`` draws is a tail of extra queries, one for every eight pinned
ones.  The adaptive controller makes the simulation chaotic: re-drawing
*all* queries moves ``vt_latency_p95_ms`` by 10 % (``adaptive_disturbance``)
to 80 % (``churn_recovery``) between seeds, more than any regression bound
worth having.  So the graph, the initial partition, the queries listed
below, the churn stream and the fault plan are the ``BASE_SEED`` scenario on
every run, and the queries drawn from ``seed`` are submitted after them: the
run is identical up to the moment the first of them is admitted (closed
loop, FIFO) or arrives (open loop).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.bench.harness import default_controller_config
from repro.core.controller import Controller
from repro.engine.barriers import SyncMode
from repro.engine.engine import EngineConfig, QGraphEngine
from repro.graph.delta import MutableDiGraph
from repro.graph.road_network import RoadNetwork, baden_wuerttemberg_like
from repro.partitioning import DomainPartitioner, HashPartitioner
from repro.simulation.cluster import make_cluster
from repro.simulation.tracing import MetricsTrace
from repro.workload.generator import QueryTrace, WorkloadGenerator

__all__ = ["Workload", "WORKLOADS", "Built", "build", "BASE_SEED"]

# shared by all four workloads: the `bw` road network at scale 1.0, eight
# workers on the M2 machine profile, hybrid barriers, 16 admitted queries
GRAPH_SCALE = 1.0
GRAPH_SEED = 7  # what repro.bench.harness.road_network_for("bw", seed=0) builds
NUM_WORKERS = 8
INFRASTRUCTURE = "M2"
MAX_PARALLEL = 16
WORKLOAD_BUCKET = 0.05
#: scenario seed of the pinned part of every workload (see module docstring)
BASE_SEED = 7
#: for every this many pinned queries one more is drawn from ``--seed``
PINNED_PER_SEEDED = 8
#: query ids of the seeded queries start here, clear of the pinned ones
SEEDED_ID_OFFSET = 1_000_000
# the write and fault load of the one workload that has them (churn_recovery):
# churn events per virtual second over a horizon, mutations per event,
# barriers between checkpoints, one worker crash, and the probability with
# which message batches, control messages and stats reports are lost
CHURN_RATE = 120.0
CHURN_SPAN = 0.4
CHURN_BATCH = 4
CHECKPOINT_INTERVAL = 4
CRASHES = 1
CRASH_WINDOW = (0.1, 0.2)
CRASH_DOWNTIME = 0.1
LOSS_PROBABILITY = 0.02


@dataclass(frozen=True)
class Workload:
    """One pinned workload.  ``queries`` is the pinned part: ``(intra-urban,
    inter-urban)`` SSSP counts, or ``(n, 0)`` queries of all seven programs
    when ``mixed``; an eighth as many of each are added from ``--seed``."""

    name: str
    why: str
    partitioner: str
    adaptive: bool
    queries: Tuple[int, int]
    smoke_queries: Tuple[int, int]
    repartition_mode: str = "global"
    scheduler: str = "fifo"
    mixed: bool = False
    #: > 0: open loop, Poisson arrivals at this many queries per virtual
    #: second; 0: everything arrives at t=0 and admission control runs a
    #: closed loop of MAX_PARALLEL virtual clients
    arrival_rate: float = 0.0
    #: topology churn, checkpointing, a crash and lossy links (the
    #: ``CHURN_*`` … ``LOSS_PROBABILITY`` constants) run beside the queries
    churn_and_faults: bool = False

    @property
    def open_loop(self) -> bool:
        return self.arrival_rate > 0

    @property
    def immutable_graph(self) -> bool:
        return not self.churn_and_faults


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="static_hotspot",
            why=(
                "query-agnostic baseline: hash partition, controller never plans, "
                "locality ~0.12, so compute dispatch, mailbox routing and the "
                "event loop do the work; bypasses every controller optimisation"
            ),
            partitioner="hash",
            adaptive=False,
            queries=(512, 128),
            smoke_queries=(16, 4),
        ),
        Workload(
            name="adaptive_disturbance",
            why=(
                "the paper's Fig. 5 run: same queries as static_hotspot with Q-cut "
                "on (global STOP/START), so ILS, snapshot build and rebucket do "
                "the work and the pair is the paper's latency claim"
            ),
            partitioner="hash",
            adaptive=True,
            queries=(512, 128),
            smoke_queries=(16, 4),
        ),
        Workload(
            name="open_mixed",
            why=(
                "serving configuration: domain partition, all seven programs, open "
                "loop Poisson arrivals, locality scheduler, partial STOP; the only "
                "workload where admission wait and retained query state show"
            ),
            partitioner="domain",
            adaptive=True,
            queries=(2048, 0),
            smoke_queries=(64, 0),
            repartition_mode="partial",
            scheduler="locality",
            mixed=True,
            arrival_rate=1500.0,
        ),
        Workload(
            name="churn_recovery",
            why=(
                "writes beside reads: topology churn, checkpoints, a worker crash, "
                "rollback and re-homing run through the engine while queries "
                "iterate, so a read-path gain that costs these paths shows here"
            ),
            partitioner="hash",
            adaptive=True,
            queries=(192, 48),
            smoke_queries=(16, 4),
            churn_and_faults=True,
        ),
    )
}


@dataclass
class Built:
    """A workload set up and submitted, ready for ``engine.run()``."""

    workload: Workload
    road_network: RoadNetwork
    assignment: np.ndarray
    engine: QGraphEngine
    controller: Controller
    trace: MetricsTrace
    queries: QueryTrace
    #: the harness's own spans around the calls into each layer during
    #: set-up: (name, start, end) on the ``time.perf_counter`` clock
    phases: List[Tuple[str, float, float]] = field(default_factory=list)

    def phase_seconds(self) -> Dict[str, float]:
        return {name: end - start for name, start, end in self.phases}

    @property
    def setup_s(self) -> float:
        """Graph build through ``submit_all``; imports are not in it."""
        return self.phases[-1][2] - self.phases[0][1]


def build(workload: Workload, seed: int, smoke: bool = False) -> Built:
    """Set a workload up the way :func:`repro.bench.harness.run_scenario`
    does (partitioner seeded with the scenario seed, generator with that
    plus one), timing the call into each layer."""
    phases: List[Tuple[str, float, float]] = []

    def timed(name: str, fn: Any, *args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        phases.append((name, start, time.perf_counter()))
        return result

    def make_graph() -> Tuple[RoadNetwork, Any]:
        # not repro.bench.harness.road_network_for: its process-wide cache
        # would turn every set-up after the first into a dictionary lookup
        rn = baden_wuerttemberg_like(scale=GRAPH_SCALE, seed=GRAPH_SEED)
        if workload.immutable_graph:
            return rn, rn.graph
        return rn, MutableDiGraph.from_digraph(rn.graph)

    rn, graph = timed("graph.build", make_graph)

    if workload.partitioner == "hash":
        partitioner: Any = HashPartitioner(seed=BASE_SEED)
    else:
        partitioner = DomainPartitioner(road_network=rn, seed=BASE_SEED)
    assignment = timed("partitioning.partition", partitioner.partition, graph, NUM_WORKERS)

    def generate() -> Tuple[QueryTrace, Optional[Any]]:
        pinned = WorkloadGenerator(rn, seed=BASE_SEED + 1)
        drawn = WorkloadGenerator(rn, seed=seed + 1, id_offset=SEEDED_ID_OFFSET)
        main, disturbance = workload.smoke_queries if smoke else workload.queries
        arrival = dict(
            arrival="poisson" if workload.open_loop else "batch",
            arrival_rate=workload.arrival_rate,
        )
        churn = {}
        if workload.churn_and_faults:
            churn = dict(churn_rate=CHURN_RATE, churn_span=CHURN_SPAN, churn_batch=CHURN_BATCH)
        if workload.mixed:
            base = pinned.mixed_kind_workload(num_queries=main, **arrival, **churn)
            tail = drawn.mixed_kind_workload(num_queries=main // PINNED_PER_SEEDED, **arrival)
        else:
            base = pinned.paper_sssp_workload(
                main_queries=main, disturbance_queries=disturbance, **arrival, **churn
            )
            tail = drawn.paper_sssp_workload(
                main_queries=main // PINNED_PER_SEEDED,
                disturbance_queries=disturbance // PINNED_PER_SEEDED,
                **arrival,
            )
        # the drawn queries come last: behind the pinned ones in the FIFO
        # (batch arrivals all carry t=0 and merge() is stable), or arriving
        # from the pinned queries' last arrival on (open loop).  Among them
        # the inter-urban ones go first, so that they run at full load like
        # the pinned ones: drained last, they would all finish fast and
        # vt_latency_p95_ms would be the pinned queries' alone, the same
        # number for every seed on the non-adaptive workload
        offset = base.entries[-1][1]
        tail.entries = sorted(
            ((query, offset + t) for query, t in tail.entries),
            key=lambda entry: (entry[1], entry[0].phase != "inter"),
        )
        faults = None
        if workload.churn_and_faults:
            faults = pinned.fault_plan(
                NUM_WORKERS,
                crashes=CRASHES,
                window=CRASH_WINDOW,
                downtime=CRASH_DOWNTIME,
                message_drop=LOSS_PROBABILITY,
                control_loss=LOSS_PROBABILITY,
                report_loss=LOSS_PROBABILITY,
            )
        return base.merge(tail), faults

    queries, faults = timed("workload.generate", generate)

    def construct() -> Tuple[Controller, MetricsTrace, QGraphEngine]:
        controller = Controller(NUM_WORKERS, default_controller_config())
        trace = MetricsTrace(workload_bucket=WORKLOAD_BUCKET)
        engine = QGraphEngine(
            graph,
            make_cluster(INFRASTRUCTURE, NUM_WORKERS),
            assignment,
            controller=controller,
            config=EngineConfig(
                sync_mode=SyncMode.HYBRID,
                max_parallel_queries=MAX_PARALLEL,
                scheduler=workload.scheduler,
                adaptive=workload.adaptive,
                repartition_mode=workload.repartition_mode,
                checkpoint_interval=CHECKPOINT_INTERVAL if workload.churn_and_faults else 0,
                sanitizer=False,  # REPRO_SANITIZER must not switch it on
            ),
            trace=trace,
            faults=faults,
        )
        return controller, trace, engine

    controller, trace, engine = timed("engine.construct", construct)
    timed("workload.submit", queries.submit_all, engine)
    return Built(
        workload=workload,
        road_network=rn,
        assignment=assignment,
        engine=engine,
        controller=controller,
        trace=trace,
        queries=queries,
        phases=phases,
    )
