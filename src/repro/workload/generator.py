"""Query workload generation.

Turns the hotspot sampler into concrete :class:`~repro.engine.query.Query`
lists organised in *phases*.  Each phase fixes the query-kind mix, the
intra/inter-urban blend and the arrival process; the Figure 5 experiments
use two phases (2048 intra-urban queries followed by a disturbance of 496
inter-urban ones).

A phase covers one query kind (any of the seven programs — ``sssp``,
``poi``, ``bfs``, ``khop``, ``reachability``, ``pagerank_local``,
``wcc_local``) or a weighted *mix* of kinds, and its queries arrive either
all at once (``batch`` — the paper's §4.2 setup, admission control then
runs them in "batches of 16 parallel queries") or as a Poisson process.

Multiple generators compose: give each a distinct ``id_offset`` (or use
:func:`namespaced_id_offset`) so their query ids never collide when their
traces feed one engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine.query import Query
from repro.errors import WorkloadError
from repro.graph.delta import GraphDelta, NewVertexSpec
from repro.graph.road_network import RoadNetwork
from repro.simulation.faults import FAULT_STREAM_KEY, FaultPlan, WorkerCrash
from repro.queries.bfs import BfsProgram
from repro.queries.khop import KHopProgram
from repro.queries.pagerank_local import LocalPageRankProgram
from repro.queries.poi import PoiProgram
from repro.queries.reachability import ReachabilityProgram
from repro.queries.sssp import SsspProgram
from repro.queries.wcc_local import LocalWccProgram
from repro.workload.hotspots import HotspotSampler, draw_from_table

__all__ = [
    "PhaseSpec",
    "WorkloadGenerator",
    "QueryTrace",
    "QUERY_KINDS",
    "namespaced_id_offset",
]

#: canonical phase-spec kind names, mapped to the program's ``kind`` tag
QUERY_KINDS: Dict[str, str] = {
    "sssp": "sssp",
    "poi": "poi",
    "bfs": "bfs",
    "khop": "khop",
    "reachability": "reach",
    "pagerank_local": "ppr",
    "wcc_local": "wcc-local",
}

#: program-tag spellings accepted as aliases in :class:`PhaseSpec`
_KIND_ALIASES: Dict[str, str] = {
    "reach": "reachability",
    "ppr": "pagerank_local",
    "wcc-local": "wcc_local",
}

_ARRIVALS = ("batch", "poisson")

#: churn-op mix of the graph-stream process: traffic-induced weight changes
#: dominate, road closures and new segments are rarer, junction churn rarest
_CHURN_OPS: Tuple[Tuple[str, float], ...] = (
    ("reweight", 0.45),
    ("close", 0.20),
    ("open", 0.15),
    ("add_vertex", 0.12),
    ("remove_vertex", 0.08),
)

#: id-namespace stride: generator ``namespace`` *n* numbers its queries from
#: ``n * 1_000_000`` (far above any realistic per-generator query count)
ID_NAMESPACE_STRIDE = 1_000_000


def namespaced_id_offset(namespace: int) -> int:
    """The ``id_offset`` reserving query-id namespace ``namespace``."""
    if namespace < 0:
        raise WorkloadError("namespace must be non-negative")
    return namespace * ID_NAMESPACE_STRIDE


def _normalize_kind(kind: str) -> str:
    kind = _KIND_ALIASES.get(kind, kind)
    if kind != "mixed" and kind not in QUERY_KINDS:
        raise WorkloadError(
            f"unknown query kind {kind!r}; pick one of "
            f"{sorted(QUERY_KINDS)} or 'mixed'"
        )
    return kind


@dataclass(frozen=True)
class PhaseSpec:
    """One workload phase.

    Attributes
    ----------
    num_queries:
        Queries generated in this phase.
    kind:
        One of :data:`QUERY_KINDS` (program-tag aliases like ``"reach"``
        accepted), or ``"mixed"`` to draw each query's kind from ``mix``.
    mix:
        ``((kind, weight), ...)`` pairs for ``kind="mixed"``; weights are
        normalized internally.  Ignored for single-kind phases.
    intra_probability:
        For two-endpoint kinds (sssp/bfs/reachability): probability that a
        query is intra-urban (same city).  The Fig. 5 main phase uses 1.0;
        the disturbance phase 0.0.
    label:
        Phase label carried into the metric trace (e.g. ``"intra"``).
    arrival_offset:
        Virtual time at which this phase's arrival process begins.
    arrival:
        ``"batch"`` (everything at ``arrival_offset``) or ``"poisson"``
        (exponential inter-arrivals at ``arrival_rate``).
    arrival_rate:
        Mean arrivals per virtual second for ``poisson``.
    depth:
        Hop budget for bounded kinds — ``k`` for khop, ``max_hops`` for
        wcc_local, ``max_depth`` for bfs (``None`` leaves bfs unbounded;
        khop/wcc_local default to 2).
    churn_rate:
        Graph-churn events per virtual second during the phase (a Poisson
        process on its own RNG stream — adding churn never perturbs the
        query endpoint or arrival draws).  Each event is one
        :class:`~repro.graph.delta.GraphDelta` of ``churn_batch`` topology
        mutations drawn from the road-authority mix: traffic reweights,
        road closures, new segments, junction additions and removals.
    churn_batch:
        Topology mutations bundled into each churn event.
    churn_span:
        Virtual-time horizon of the churn process after ``arrival_offset``.
        Required (> 0) for ``batch`` arrivals, whose queries give the phase
        no intrinsic duration; for ``poisson`` it defaults to the arrival
        span when 0.
    """

    num_queries: int
    kind: str = "sssp"
    mix: Tuple[Tuple[str, float], ...] = ()
    intra_probability: float = 1.0
    label: str = "default"
    arrival_offset: float = 0.0
    arrival: str = "batch"
    arrival_rate: float = 0.0
    depth: Optional[int] = None
    churn_rate: float = 0.0
    churn_batch: int = 4
    churn_span: float = 0.0

    def __post_init__(self) -> None:
        if self.num_queries < 0:
            raise WorkloadError("num_queries must be non-negative")
        object.__setattr__(self, "kind", _normalize_kind(self.kind))
        if self.kind == "mixed":
            if not self.mix:
                raise WorkloadError("kind='mixed' requires a non-empty mix")
            normalized = tuple(
                (_normalize_kind(k), float(w)) for k, w in self.mix
            )
            if any(w <= 0 for _k, w in normalized):
                raise WorkloadError("mix weights must be positive")
            if any(k == "mixed" for k, _w in normalized):
                raise WorkloadError("mix entries must be concrete kinds")
            object.__setattr__(self, "mix", normalized)
        if self.arrival not in _ARRIVALS:
            raise WorkloadError(
                f"unknown arrival process {self.arrival!r}; "
                f"pick one of {_ARRIVALS}"
            )
        if self.arrival == "poisson" and self.arrival_rate <= 0:
            raise WorkloadError("poisson arrivals need arrival_rate > 0")
        if self.depth is not None and self.depth < 0:
            raise WorkloadError("depth must be non-negative")
        if self.churn_rate < 0:
            raise WorkloadError("churn_rate must be non-negative")
        if self.churn_rate > 0:
            if self.churn_batch < 1:
                raise WorkloadError("churn_batch must be >= 1")
            if self.arrival == "batch" and self.churn_span <= 0:
                raise WorkloadError(
                    "batch-arrival phases need churn_span > 0 to give the "
                    "churn process a horizon"
                )


@dataclass
class QueryTrace:
    """A generated workload: (query, arrival time) pairs plus the graph
    stream — (time, :class:`~repro.graph.delta.GraphDelta`) churn events."""

    entries: List[Tuple[Query, float]] = field(default_factory=list)
    churn: List[Tuple[float, GraphDelta]] = field(default_factory=list)

    def submit_all(self, engine) -> None:
        """Feed every query — and every churn event — into an engine."""
        for query, arrival in self.entries:
            engine.submit(query, arrival)
        for time, delta in self.churn:
            engine.submit_update(delta, time)

    def merge(self, other: "QueryTrace") -> "QueryTrace":
        """Combine two traces (e.g. from different generators) in
        arrival-time order; ids must already be disjoint (use distinct
        ``id_offset`` namespaces)."""
        merged = sorted(self.entries + other.entries, key=lambda e: e[1])
        churn = sorted(self.churn + other.churn, key=lambda e: e[0])
        return QueryTrace(entries=merged, churn=churn)

    @property
    def num_queries(self) -> int:
        return len(self.entries)

    def queries(self) -> List[Query]:
        return [q for q, _t in self.entries]


class WorkloadGenerator:
    """Deterministic hotspot workload builder over a road network.

    ``id_offset`` namespaces the generated query ids so several generators
    (e.g. one per tenant or per workload stream) can feed the same engine
    without duplicate-id collisions; :func:`namespaced_id_offset` reserves
    well-separated blocks.
    """

    def __init__(
        self,
        road_network: RoadNetwork,
        seed: int = 0,
        id_offset: int = 0,
    ) -> None:
        if id_offset < 0:
            raise WorkloadError("id_offset must be non-negative")
        self.rn = road_network
        self.sampler = HotspotSampler(road_network, seed=seed)
        #: separate stream for kind-mix and arrival draws so extending a
        #: phase spec never perturbs the hotspot endpoint sequence
        self._rng = np.random.default_rng([seed, 0x51C])
        #: the graph-churn stream — again separate, so enabling churn
        #: leaves both the endpoint and the arrival sequences untouched
        self._churn_rng = np.random.default_rng([seed, 0xC4C4])
        #: the fault-schedule stream — crash times/victims are drawn here,
        #: never from the workload or churn streams, so adding a fault plan
        #: leaves the generated queries and churn events bit-identical
        self._fault_rng = np.random.default_rng([seed, FAULT_STREAM_KEY])
        self._seed = seed
        #: initial edge arrays for churn-op sampling (built lazily)
        self._churn_edges: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._next_id = id_offset

    def _fresh_id(self) -> int:
        qid = self._next_id
        self._next_id += 1
        return qid

    # ------------------------------------------------------------------
    def _build_query(self, qid: int, kind: str, phase: PhaseSpec) -> Query:
        """Materialise one query of canonical ``kind`` for ``phase``."""
        if kind == "sssp":
            start, end = self.sampler.sample_sssp_endpoints(phase.intra_probability)
            program = SsspProgram(start=start, target=end)
        elif kind == "poi":
            start = self.sampler.sample_poi_start()
            program = PoiProgram(start=start)
        elif kind == "bfs":
            start, end = self.sampler.sample_sssp_endpoints(phase.intra_probability)
            program = BfsProgram(start=start, target=end, max_depth=phase.depth)
        elif kind == "khop":
            start = self.sampler.sample_hotspot_vertex()
            program = KHopProgram(center=start, k=phase.depth if phase.depth is not None else 2)
        elif kind == "reachability":
            start, end = self.sampler.sample_sssp_endpoints(phase.intra_probability)
            program = ReachabilityProgram(start=start, target=end)
        elif kind == "pagerank_local":
            start = self.sampler.sample_hotspot_vertex()
            program = LocalPageRankProgram(seed=start)
        elif kind == "wcc_local":
            start = self.sampler.sample_hotspot_vertex()
            program = LocalWccProgram(
                max_hops=phase.depth if phase.depth is not None else 2
            )
        else:  # pragma: no cover - PhaseSpec validation prevents this
            raise WorkloadError(f"unknown query kind {kind!r}")
        return Query(
            query_id=qid,
            program=program,
            initial_vertices=(start,),
            phase=phase.label,
        )

    def _phase_kinds(self, phase: PhaseSpec) -> List[str]:
        """The canonical kind of each query in the phase (mix resolved)."""
        if phase.kind != "mixed":
            return [phase.kind] * phase.num_queries
        kinds = [k for k, _w in phase.mix]
        weights = np.array([w for _k, w in phase.mix], dtype=np.float64)
        weights /= weights.sum()
        draws = self._rng.choice(len(kinds), size=phase.num_queries, p=weights)
        return [kinds[int(i)] for i in draws]

    def _arrival_times(self, phase: PhaseSpec) -> np.ndarray:
        """Arrival instant of each query in the phase (non-decreasing)."""
        n = phase.num_queries
        t0 = phase.arrival_offset
        if phase.arrival == "batch" or n == 0:
            return np.full(n, t0)
        gaps = self._rng.exponential(1.0 / phase.arrival_rate, size=n)
        return t0 + np.cumsum(gaps)

    # ------------------------------------------------------------------
    # graph-churn process
    # ------------------------------------------------------------------
    def _initial_edges(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._churn_edges is None:
            self._churn_edges = self.rn.graph.edge_array()
        return self._churn_edges

    def _churn_city_vertex(self) -> int:
        """A population-weighted hotspot vertex on the churn RNG stream.

        Uses the sampler's city table but never its RNG (which feeds the
        query endpoints) — churn draws must never perturb the workload.
        """
        city = draw_from_table(self.sampler.city_table, self._churn_rng)
        ids = self.rn.city_vertices(city)
        return int(ids[int(self._churn_rng.integers(0, ids.size))])

    def _segment_weight(self, u: int, v: int) -> float:
        """Travel time for a new urban segment (euclidean at street speed)."""
        graph = self.rn.graph
        if graph.has_coords():
            return float(max(graph.euclidean(u, v) * 2.0, 1e-3))
        return 1.0

    def _churn_delta(self, batch: int) -> GraphDelta:
        """One churn event: a batch of mutations against the *initial*
        topology (application is tolerant of conflicts with earlier events,
        like a road authority's change feed replayed against a live map)."""
        rng = self._churn_rng
        graph = self.rn.graph
        src, dst, w = self._initial_edges()
        ops = [name for name, _w in _CHURN_OPS]
        probs = np.array([p for _n, p in _CHURN_OPS], dtype=np.float64)
        probs /= probs.sum()
        delta = GraphDelta()
        for op_idx in rng.choice(len(ops), size=batch, p=probs):
            op = ops[int(op_idx)]
            if op == "reweight" and src.size:
                e = int(rng.integers(0, src.size))
                factor = float(rng.uniform(1.5, 4.0))  # traffic slowdown
                delta.update_weights.append(
                    (int(src[e]), int(dst[e]), float(w[e]) * factor)
                )
            elif op == "close" and src.size:
                e = int(rng.integers(0, src.size))
                u, v = int(src[e]), int(dst[e])
                delta.delete_edges.append((u, v))
                delta.delete_edges.append((v, u))  # road segments are two-way
            elif op == "open":
                u = self._churn_city_vertex()
                v = self._churn_city_vertex()
                if u != v:
                    weight = self._segment_weight(u, v)
                    delta.insert_edges.append((u, v, weight))
                    delta.insert_edges.append((v, u, weight))
            elif op == "add_vertex":
                a = self._churn_city_vertex()
                b = self._churn_city_vertex()
                x = y = None
                if graph.has_coords():
                    mid = (graph.coords[a] + graph.coords[b]) / 2.0
                    jitter = rng.normal(0.0, 0.05, size=2)
                    x, y = float(mid[0] + jitter[0]), float(mid[1] + jitter[1])
                edges = [(a, self._segment_weight(a, b) / 2.0 + 1e-3)]
                if b != a:
                    edges.append((b, self._segment_weight(a, b) / 2.0 + 1e-3))
                delta.new_vertices.append(
                    NewVertexSpec(x=x, y=y, edges=tuple(edges))
                )
            elif op == "remove_vertex":
                delta.remove_vertices.append(self._churn_city_vertex())
        return delta

    def _phase_churn(
        self, phase: PhaseSpec, arrivals: np.ndarray
    ) -> List[Tuple[float, GraphDelta]]:
        """The phase's churn events: a Poisson process over its span."""
        if phase.churn_rate <= 0:
            return []
        t0 = phase.arrival_offset
        span = phase.churn_span
        if span <= 0 and arrivals.size:
            span = float(arrivals.max()) - t0
        if span <= 0:
            return []
        events: List[Tuple[float, GraphDelta]] = []
        t = t0
        while True:
            t += float(self._churn_rng.exponential(1.0 / phase.churn_rate))
            if t > t0 + span:
                break
            events.append((t, self._churn_delta(phase.churn_batch)))
        return events

    # ------------------------------------------------------------------
    def generate(self, phases: List[PhaseSpec]) -> QueryTrace:
        """Materialise a multi-phase workload trace."""
        trace = QueryTrace()
        for phase in phases:
            kinds = self._phase_kinds(phase)
            arrivals = self._arrival_times(phase)
            for kind, arrival in zip(kinds, arrivals):
                trace.entries.append(
                    (self._build_query(self._fresh_id(), kind, phase), float(arrival))
                )
            trace.churn.extend(self._phase_churn(phase, arrivals))
        trace.churn.sort(key=lambda e: e[0])
        return trace

    # ------------------------------------------------------------------
    # fault schedules
    # ------------------------------------------------------------------
    def fault_plan(
        self,
        num_workers: int,
        crashes: int = 1,
        window: Tuple[float, float] = (0.05, 0.5),
        downtime: Optional[float] = None,
        message_drop: float = 0.0,
        message_duplicate: float = 0.0,
        control_loss: float = 0.0,
        report_loss: float = 0.0,
    ) -> FaultPlan:
        """A deterministic fault schedule matched to this workload's seed.

        Crash times are drawn uniformly over ``window`` (sorted, so the
        schedule reads chronologically) and victims uniformly over the
        workers, all on the dedicated fault RNG stream.  The returned
        plan's own seed is the generator's, so the engine-side fault draws
        (drops, duplicates, control loss) are reproducible too.
        """
        if num_workers < 1:
            raise WorkloadError("fault_plan needs num_workers >= 1")
        if crashes < 0:
            raise WorkloadError("crashes must be non-negative")
        lo, hi = float(window[0]), float(window[1])
        if not 0.0 <= lo <= hi:
            raise WorkloadError("fault window must satisfy 0 <= lo <= hi")
        times = np.sort(self._fault_rng.uniform(lo, hi, size=crashes))
        victims = self._fault_rng.integers(0, num_workers, size=crashes)
        return FaultPlan(
            seed=self._seed,
            crashes=tuple(
                WorkerCrash(
                    time=float(t), worker=int(w), downtime=downtime
                )
                for t, w in zip(times, victims)
            ),
            message_drop=message_drop,
            message_duplicate=message_duplicate,
            control_loss=control_loss,
            report_loss=report_loss,
        )

    # ------------------------------------------------------------------
    # canned workloads matching the paper's experiments
    # ------------------------------------------------------------------
    def paper_sssp_workload(
        self,
        main_queries: int = 2048,
        disturbance_queries: int = 496,
        arrival: str = "batch",
        arrival_rate: float = 0.0,
        churn_rate: float = 0.0,
        churn_span: float = 0.0,
        churn_batch: int = 4,
    ) -> QueryTrace:
        """§4.2: hotspot SSSP queries followed by an inter-urban disturbance.

        ``churn_rate > 0`` superimposes the graph-stream churn process on
        the main phase (the disturbance phase shares the same virtual-time
        window, so one process covers both).
        """
        return self.generate(
            [
                PhaseSpec(
                    num_queries=main_queries,
                    kind="sssp",
                    intra_probability=1.0,
                    label="intra",
                    arrival=arrival,
                    arrival_rate=arrival_rate,
                    churn_rate=churn_rate,
                    churn_span=churn_span,
                    churn_batch=churn_batch,
                ),
                PhaseSpec(
                    num_queries=disturbance_queries,
                    kind="sssp",
                    intra_probability=0.0,
                    label="inter",
                    arrival=arrival,
                    arrival_rate=arrival_rate,
                ),
            ]
        )

    def paper_poi_workload(
        self,
        num_queries: int = 2048,
        arrival: str = "batch",
        arrival_rate: float = 0.0,
        churn_rate: float = 0.0,
        churn_span: float = 0.0,
        churn_batch: int = 4,
    ) -> QueryTrace:
        """§4.2: POI query workload on hotspots."""
        return self.generate(
            [
                PhaseSpec(
                    num_queries=num_queries,
                    kind="poi",
                    label="poi",
                    arrival=arrival,
                    arrival_rate=arrival_rate,
                    churn_rate=churn_rate,
                    churn_span=churn_span,
                    churn_batch=churn_batch,
                )
            ]
        )

    def mixed_kind_workload(
        self,
        num_queries: int = 2048,
        label: str = "mixed",
        arrival: str = "batch",
        arrival_rate: float = 0.0,
        depth: int = 2,
        churn_rate: float = 0.0,
        churn_span: float = 0.0,
        churn_batch: int = 4,
    ) -> QueryTrace:
        """An even blend of all seven query programs on the hotspots."""
        return self.generate(
            [
                PhaseSpec(
                    num_queries=num_queries,
                    kind="mixed",
                    mix=tuple((k, 1.0) for k in sorted(QUERY_KINDS)),
                    label=label,
                    arrival=arrival,
                    arrival_rate=arrival_rate,
                    depth=depth,
                    churn_rate=churn_rate,
                    churn_span=churn_span,
                    churn_batch=churn_batch,
                )
            ]
        )
