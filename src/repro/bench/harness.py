"""Experiment harness used by every benchmark and the examples.

One :class:`Scenario` describes an experiment arm — graph preset, scale,
infrastructure, initial partitioner, synchronization mode, adaptivity,
workload — and :func:`run_scenario` executes it deterministically, returning
the metric trace plus derived statistics.

Sizes: a scenario names its query counts explicitly, and the graph presets
default to the generated BW network at scale 1.0 and GY at 0.5 — roughly
100x smaller than the paper's OSM extracts, so the paper's experiments run
in minutes while keeping their *shapes* (who wins, crossovers).  Controller
timing parameters shrink with the graphs (monitoring window μ, Q-cut
budget); the mapping is documented in ``docs/experiments.md``, alongside
the scheduler/arrival knobs.  ``benchmarks/claims.py`` holds the paper's
claims as scenario arms over this harness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.controller import Controller, ControllerConfig
from repro.engine.barriers import SyncMode
from repro.engine.engine import EngineConfig, QGraphEngine
from repro.errors import ReproError
from repro.graph.delta import MutableDiGraph
from repro.graph.road_network import (
    RoadNetwork,
    baden_wuerttemberg_like,
    germany_like,
)
from repro.partitioning import (
    BfsRegionPartitioner,
    DomainPartitioner,
    HashPartitioner,
    LdgPartitioner,
)
from repro.simulation.cluster import make_cluster
from repro.simulation.faults import FaultPlan
from repro.simulation.tracing import MetricsTrace
from repro.workload.generator import PhaseSpec, WorkloadGenerator

__all__ = [
    "Scenario",
    "ScenarioResult",
    "run_scenario",
    "default_controller_config",
    "road_network_for",
]

#: graph-size multiplier per preset when the scenario does not pin one
#: (GY is generated at half the BW scale)
_DEFAULT_GRAPH_SCALE: Dict[str, float] = {"bw": 1.0, "gy": 0.5}

_NETWORK_CACHE: Dict[Tuple[str, float, int], RoadNetwork] = {}


def road_network_for(preset: str, scale: Optional[float] = None, seed: int = 0) -> RoadNetwork:
    """Cached road-network construction (presets ``"bw"`` / ``"gy"``)."""
    if scale is None:
        scale = _DEFAULT_GRAPH_SCALE.get(preset, 1.0)
    key = (preset, round(float(scale), 4), seed)
    if key not in _NETWORK_CACHE:
        if preset == "bw":
            _NETWORK_CACHE[key] = baden_wuerttemberg_like(scale=scale, seed=7 + seed)
        elif preset == "gy":
            _NETWORK_CACHE[key] = germany_like(scale=scale, seed=11 + seed)
        else:
            raise ReproError(f"unknown graph preset {preset!r}")
    return _NETWORK_CACHE[key]


def default_controller_config(**overrides) -> ControllerConfig:
    """Controller parameters calibrated for the scaled simulations.

    The paper's values (μ=240 s, 2 s Q-cut budget) assume multi-second query
    latencies on 1.8M-11.8M-vertex graphs; our scaled graphs run queries in
    tens of virtual milliseconds, so the window and budget shrink by the
    same two orders of magnitude while keeping Φ=0.7 and δ=0.25 untouched.
    """
    base = dict(
        mu=0.1,
        phi=0.7,
        delta=0.25,
        max_tracked_queries=64,
        clusters_per_worker=4,
        qcut_compute_time=0.004,
        ils_rounds=60,
        qcut_cooldown=0.03,
        min_queries_for_qcut=8,
        seed=0,
    )
    base.update(overrides)
    return ControllerConfig(**base)


@dataclass(frozen=True)
class Scenario:
    """One experiment arm.

    ``partitioner`` names the initial static partitioning: ``"hash"``,
    ``"domain"``, ``"ldg"`` or ``"bfs"``.
    ``scheduler`` selects the admission policy (``"fifo"`` — the
    historical order — or ``"locality"``); ``arrival``/``arrival_rate``
    select the arrival process of the workload phases (``"batch"`` —
    everything at t=0, the paper's setup — or ``"poisson"``).
    The ``"mixed"`` workload blends all seven query programs.
    ``repartition_mode`` picks the STOP/START barrier scope
    (``"global"`` — the paper's whole-cluster drain — or ``"partial"``,
    which halts only the move plan's involved workers).
    ``churn > 0`` superimposes a graph-stream churn process (topology
    mutations applied through :class:`~repro.graph.delta.MutableDiGraph`)
    at that many events per virtual second over a ``churn_span`` horizon;
    the scenario's road network is deep-copied before mutation so the
    harness cache stays pristine.
    ``faults`` injects a deterministic
    :class:`~repro.simulation.faults.FaultPlan` (worker crashes, message
    drops/duplicates, control loss); ``checkpoint_interval > 0`` enables
    barrier-aligned checkpointing, required whenever the plan schedules
    crashes.
    """

    name: str
    graph_preset: str = "bw"
    infrastructure: str = "M2"
    k: int = 8
    partitioner: str = "hash"
    sync_mode: SyncMode = SyncMode.HYBRID
    adaptive: bool = True
    workload: str = "sssp"
    main_queries: int = 256
    disturbance_queries: int = 0
    max_parallel: int = 16
    scheduler: str = "fifo"
    repartition_mode: str = "global"
    arrival: str = "batch"
    arrival_rate: float = 0.0
    churn: float = 0.0
    churn_span: float = 0.5
    churn_batch: int = 4
    seed: int = 0
    graph_scale: Optional[float] = None
    workload_bucket: float = 0.05
    controller_overrides: Tuple[Tuple[str, object], ...] = ()
    faults: Optional[FaultPlan] = None
    checkpoint_interval: int = 0

    def controller_config(self) -> ControllerConfig:
        return default_controller_config(**dict(self.controller_overrides))


@dataclass
class ScenarioResult:
    """Trace plus derived statistics of one scenario run."""

    scenario: Scenario
    trace: MetricsTrace
    controller: Controller
    engine: QGraphEngine
    wall_seconds: float

    # headline numbers -------------------------------------------------
    @property
    def total_latency(self) -> float:
        return self.trace.total_latency()

    @property
    def mean_latency(self) -> float:
        return self.trace.mean_latency()

    @property
    def makespan(self) -> float:
        return self.trace.makespan()

    @property
    def mean_locality(self) -> float:
        return self.trace.mean_locality()

    @property
    def mean_imbalance(self) -> float:
        return self.trace.mean_workload_imbalance(self.scenario.k)

    def summary(self) -> Dict[str, float]:
        return {
            "total_latency": self.total_latency,
            "mean_latency": self.mean_latency,
            "makespan": self.makespan,
            "locality": self.mean_locality,
            "imbalance": self.mean_imbalance,
            "repartitions": float(len(self.trace.repartitions)),
            "queries": float(len(self.trace.finished_queries())),
        }


def _build_partitioner(name: str, rn: RoadNetwork, seed: int):
    if name == "hash":
        return HashPartitioner(seed=seed)
    if name == "domain":
        return DomainPartitioner(road_network=rn, seed=seed)
    if name == "ldg":
        return LdgPartitioner()
    if name == "bfs":
        return BfsRegionPartitioner(seed=seed)
    raise ReproError(f"unknown partitioner {name!r}")


def run_scenario(scenario: Scenario) -> ScenarioResult:
    """Execute one experiment arm end to end (deterministic)."""
    t0 = time.perf_counter()
    rn = road_network_for(scenario.graph_preset, scenario.graph_scale, seed=0)
    graph = rn.graph
    if scenario.churn > 0:
        # the cached network is shared across scenarios — mutate a copy
        graph = MutableDiGraph.from_digraph(graph)

    partitioner = _build_partitioner(scenario.partitioner, rn, scenario.seed)
    assignment = partitioner.partition(graph, scenario.k)

    cluster = make_cluster(scenario.infrastructure, scenario.k)
    controller = Controller(scenario.k, scenario.controller_config())
    trace = MetricsTrace(workload_bucket=scenario.workload_bucket)
    engine = QGraphEngine(
        graph,
        cluster,
        assignment,
        controller=controller,
        config=EngineConfig(
            sync_mode=scenario.sync_mode,
            max_parallel_queries=scenario.max_parallel,
            scheduler=scenario.scheduler,
            adaptive=scenario.adaptive,
            repartition_mode=scenario.repartition_mode,
            checkpoint_interval=scenario.checkpoint_interval,
        ),
        trace=trace,
        faults=scenario.faults,
    )

    generator = WorkloadGenerator(rn, seed=scenario.seed + 1)
    churn_kwargs = dict(
        churn_rate=scenario.churn,
        churn_span=scenario.churn_span,
        churn_batch=scenario.churn_batch,
    )
    if scenario.workload == "sssp":
        wl = generator.paper_sssp_workload(
            main_queries=scenario.main_queries,
            disturbance_queries=scenario.disturbance_queries,
            arrival=scenario.arrival,
            arrival_rate=scenario.arrival_rate,
            **churn_kwargs,
        )
    elif scenario.workload == "poi":
        wl = generator.paper_poi_workload(
            num_queries=scenario.main_queries,
            arrival=scenario.arrival,
            arrival_rate=scenario.arrival_rate,
            **churn_kwargs,
        )
    elif scenario.workload == "mixed":
        wl = generator.mixed_kind_workload(
            num_queries=scenario.main_queries,
            arrival=scenario.arrival,
            arrival_rate=scenario.arrival_rate,
            **churn_kwargs,
        )
    else:
        raise ReproError(f"unknown workload {scenario.workload!r}")
    wl.submit_all(engine)
    engine.run()

    return ScenarioResult(
        scenario=scenario,
        trace=trace,
        controller=controller,
        engine=engine,
        wall_seconds=time.perf_counter() - t0,
    )

