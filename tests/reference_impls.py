"""Test-side oracles: the set-based and loop-based forms the library's
vectorized paths replaced, kept only to check those paths against.

* :class:`QueryScopes` and :func:`pairwise_intersections` — the set-based
  scope store and intersection count behind
  :class:`~repro.core.scopes.ScopeStore`;
* :func:`reference_snapshot` / :func:`reference_controller` — the set-based
  Q-cut snapshot builder behind ``Controller._build_snapshot``;
* :func:`ldg_partition_reference` / :func:`fennel_partition_reference` —
  the per-neighbour scoring loops behind the batched LDG and FENNEL
  partitioners;
* :func:`ldg_place_vertices_reference` — churn's new-vertex placement
  reading in-neighbours from the reverse CSR, behind
  :func:`~repro.partitioning.ldg.ldg_place_vertices`' forward-CSR pass;
* :func:`reverse_csr_reference` — the in-adjacency as an edge-by-edge
  loop, behind :meth:`~repro.graph.digraph.DiGraph.csr_in`;
* :func:`generic_path` — runs built-in vertex programs on the engine's
  generic per-vertex path instead of their vectorized kernels;
* :class:`ListEdgeBuilder` — the three Python edge lists behind
  :class:`~repro.graph.builder.GraphBuilder`'s array chunks.

Each oracle must produce exactly what its library counterpart produces.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core import Controller, ControllerConfig, cluster_queries
from repro.core.scopes import scope_worker_counts
from repro.core.state import Fragment
from repro.engine import VertexProgram
from repro.graph.builder import csr_arrays_from_edges
from repro.graph.digraph import DiGraph
from repro.partitioning import FennelPartitioner, LdgPartitioner


# ----------------------------------------------------------------------
# scope store
# ----------------------------------------------------------------------
class QueryScopes:
    """Set-based store for global scopes and local-scope stats.

    Offers the methods the controller's Monitor and Analyze steps call on
    its store, so a controller can run on it (:func:`reference_controller`).
    """

    def __init__(self) -> None:
        self._scopes: Dict[int, Set[int]] = {}

    def add_activations(self, query_id: int, vertices: Iterable[int]) -> None:
        self._scopes.setdefault(query_id, set()).update(int(v) for v in vertices)

    def drop(self, query_id: int) -> None:
        self._scopes.pop(query_id, None)

    def queries(self) -> List[int]:
        return sorted(self._scopes)

    def global_scope(self, query_id: int) -> Set[int]:
        """``GS(q)`` — empty set when unknown."""
        return self._scopes.get(query_id, set())

    def global_scope_size(self, query_id: int) -> int:
        return len(self._scopes.get(query_id, ()))

    def local_scope_sizes(self, query_id: int, assignment: np.ndarray, k: int) -> np.ndarray:
        """Vector of ``|LS(q, w)|`` for all workers."""
        return scope_worker_counts(self.global_scope(query_id), assignment, k)

    def spanning_workers(self, query_id: int, assignment: np.ndarray) -> Set[int]:
        """Workers with non-empty local scope."""
        return {int(assignment[v]) for v in self.global_scope(query_id)}

    def scope_mass(
        self,
        assignment: np.ndarray,
        k: int,
        query_ids: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Per-worker ``sum_q |LS(q, w)|``, one query at a time."""
        mass = np.zeros(k, dtype=np.int64)
        for qid in self.queries() if query_ids is None else query_ids:
            mass += self.local_scope_sizes(qid, assignment, k)
        return mass

    def query_cut(self, assignment: np.ndarray) -> int:
        """§2 metric: the number of non-empty local query scopes."""
        return sum(len(self.spanning_workers(q, assignment)) for q in self._scopes)

    def query_cut_excess(self, assignment: np.ndarray) -> int:
        """Query-cut minus the number of non-empty queries (Figure 1 form)."""
        spans = [len(self.spanning_workers(q, assignment)) for q in self._scopes]
        return sum(spans) - sum(1 for s in spans if s)


def pairwise_intersections(
    scopes: Dict[int, Set[int]], min_overlap: int = 1
) -> Dict[Tuple[int, int], int]:
    """``|GS(qi) ∩ GS(qj)|`` for all query pairs ``qi < qj``, through an
    inverted vertex -> queries index."""
    inverted: Dict[int, List[int]] = {}
    for qid, scope in scopes.items():
        for v in scope:
            inverted.setdefault(v, []).append(qid)
    counts: Dict[Tuple[int, int], int] = {}
    for members in inverted.values():
        members = sorted(members)
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                key = (members[i], members[j])
                counts[key] = counts.get(key, 0) + 1
    return {key: c for key, c in counts.items() if c >= min_overlap}


# ----------------------------------------------------------------------
# Q-cut snapshot
# ----------------------------------------------------------------------
def reference_snapshot(controller: Controller, assignment: np.ndarray):
    """The set-based Q-cut snapshot of ``controller``'s tracked queries.

    Reads the scopes through :class:`QueryScopes`' set interface, so the
    controller must hold one (:func:`reference_controller`).
    """
    scopes = controller.scopes
    k = controller.k
    query_ids = controller._nonempty_tracked_queries()
    scope_map = {qid: scopes.global_scope(qid) for qid in query_ids}
    overlaps = pairwise_intersections(scope_map)
    max_clusters = max(controller.config.clusters_per_worker * k, 1)
    labels = cluster_queries(
        query_ids,
        overlaps,
        max_clusters,
        seed=controller.config.seed + controller.qcut_count,
    )
    num_units = max(labels.values()) + 1 if labels else 0

    # union scopes per cluster, then split into per-worker fragments; the
    # weighted mass counts shared vertices once per member query, the union
    # mass counts distinct vertices
    cluster_scopes: Dict[int, Set[int]] = {}
    cluster_members: Dict[int, List[int]] = {}
    for qid, unit in labels.items():
        cluster_scopes.setdefault(unit, set()).update(scope_map[qid])
        cluster_members.setdefault(unit, []).append(qid)

    fragments: List[Fragment] = []
    fragment_vertices: Dict[Tuple[int, int], np.ndarray] = {}
    for unit, scope in sorted(cluster_scopes.items()):
        vertices = np.fromiter(scope, dtype=np.int64, count=len(scope))
        owners = assignment[vertices]
        weighted = np.zeros(k, dtype=np.int64)
        for qid in cluster_members[unit]:
            weighted += scopes.local_scope_sizes(qid, assignment, k)
        for w in np.unique(owners):
            members = vertices[owners == w]
            fragments.append(
                Fragment(
                    unit=unit,
                    origin_worker=int(w),
                    union_size=int(members.size),
                    weighted_size=int(max(weighted[int(w)], members.size)),
                )
            )
            fragment_vertices[(unit, int(w))] = members
    return controller._finalize_snapshot(
        assignment, num_units, fragments, fragment_vertices
    )


def reference_controller(k: int, config: ControllerConfig) -> Controller:
    """A controller that monitors into :class:`QueryScopes` and plans from
    :func:`reference_snapshot`; everything else is the library's."""
    controller = Controller(k, config)
    controller.scopes = QueryScopes()
    controller._build_snapshot = functools.partial(reference_snapshot, controller)
    return controller


# ----------------------------------------------------------------------
# streaming partitioners
# ----------------------------------------------------------------------
def _neighbor_counts(graph: DiGraph, v: int, assignment: np.ndarray, k: int) -> np.ndarray:
    counts = np.zeros(k, dtype=np.float64)
    for u in graph.out_neighbors(v):
        if assignment[u] >= 0:
            counts[assignment[u]] += 1.0
    for u in graph.in_neighbors(v):
        if assignment[u] >= 0:
            counts[assignment[u]] += 1.0
    return counts


def ldg_partition_reference(
    partitioner: LdgPartitioner, graph: DiGraph, k: int
) -> np.ndarray:
    """LDG with a per-neighbour scoring loop."""
    partitioner._check_k(graph, k)
    n = graph.num_vertices
    assignment = np.full(n, -1, dtype=np.int64)
    sizes = np.zeros(k, dtype=np.int64)
    capacity = (1.0 + partitioner.slack) * n / k if n else 1.0
    for v in partitioner._stream(graph):
        penalty = 1.0 - sizes / capacity
        scores = _neighbor_counts(graph, v, assignment, k) * np.maximum(penalty, 0.0)
        best = np.flatnonzero(scores == scores.max())
        if best.size > 1:
            best = best[np.argsort(sizes[best], kind="stable")]
        choice = int(best[0])
        if sizes[choice] >= capacity:
            choice = int(np.argmin(sizes))
        assignment[v] = choice
        sizes[choice] += 1
    return assignment


def ldg_place_vertices_reference(
    graph: DiGraph,
    new_ids: np.ndarray,
    assignment: np.ndarray,
    k: int,
    slack: float = 0.1,
) -> np.ndarray:
    """Streaming LDG placement of appended vertices with a per-neighbour
    scoring loop over ``out_neighbors`` and ``in_neighbors``."""
    sizes = np.bincount(assignment, minlength=k)[:k].astype(np.int64)
    total = assignment.size + len(new_ids)
    capacity = (1.0 + slack) * total / k if total else 1.0
    combined = np.full(graph.num_vertices, -1, dtype=np.int64)
    combined[: assignment.size] = assignment
    placed = []
    for v in new_ids:
        penalty = 1.0 - sizes / capacity
        scores = _neighbor_counts(graph, int(v), combined, k) * np.maximum(penalty, 0.0)
        best = np.flatnonzero(scores == scores.max())
        if best.size > 1:
            best = best[np.argsort(sizes[best], kind="stable")]
        choice = int(best[0])
        if sizes[choice] >= capacity:
            choice = int(np.argmin(sizes))
        combined[v] = choice
        sizes[choice] += 1
        placed.append(choice)
    return np.asarray(placed, dtype=np.int64)


def fennel_partition_reference(
    partitioner: FennelPartitioner, graph: DiGraph, k: int
) -> np.ndarray:
    """FENNEL with a per-neighbour scoring loop."""
    partitioner._check_k(graph, k)
    n = graph.num_vertices
    if n == 0:
        return np.empty(0, dtype=np.int64)
    gamma = partitioner.gamma
    alpha = np.sqrt(k) * graph.num_edges / max(n**1.5, 1.0)
    capacity = (1.0 + partitioner.balance_slack) * n / k
    assignment = np.full(n, -1, dtype=np.int64)
    sizes = np.zeros(k, dtype=np.float64)
    for v in partitioner._stream(graph):
        penalty = alpha * gamma * np.power(np.maximum(sizes, 0.0), gamma - 1.0)
        scores = _neighbor_counts(graph, v, assignment, k) - penalty
        scores[sizes >= capacity] = -np.inf
        best = np.flatnonzero(scores == scores.max())
        if best.size > 1:
            best = best[np.argsort(sizes[best], kind="stable")]
        choice = int(best[0])
        assignment[v] = choice
        sizes[choice] += 1.0
    return assignment


# ----------------------------------------------------------------------
# engine iteration path
# ----------------------------------------------------------------------
def _program_classes(cls: type = VertexProgram) -> Iterator[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _program_classes(sub)


@contextmanager
def generic_path() -> Iterator[None]:
    """Inside the block every vertex program's ``make_kernel`` returns
    ``None``, so the queries an engine starts there (in ``run``) take the
    generic per-vertex path."""
    saved = {
        cls: vars(cls)["make_kernel"]
        for cls in _program_classes()
        if "make_kernel" in vars(cls)
    }
    try:
        for cls in saved:
            cls.make_kernel = lambda self, graph: None
        yield
    finally:
        for cls, make_kernel in saved.items():
            cls.make_kernel = make_kernel


# ----------------------------------------------------------------------
# graph builder
# ----------------------------------------------------------------------
class ListEdgeBuilder:
    """``GraphBuilder``'s edge calls on three Python lists, one element per
    edge, turned into CSR arrays in one go.  No validation: feed it only
    the calls the library builder accepted."""

    def __init__(self, num_vertices: int = 0) -> None:
        self.num_vertices = num_vertices
        self.src: List[int] = []
        self.dst: List[int] = []
        self.w: List[float] = []

    @property
    def num_edges(self) -> int:
        return len(self.src)

    def add_vertices(self, count: int) -> int:
        first = self.num_vertices
        self.num_vertices += count
        return first

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        self.src.append(int(u))
        self.dst.append(int(v))
        self.w.append(float(weight))

    def add_bidirectional_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        self.add_edge(u, v, weight)
        self.add_edge(v, u, weight)

    def add_edges(self, edges: Iterable[Tuple[int, int, float]]) -> None:
        for u, v, w in edges:
            self.add_edge(u, v, w)

    def add_edge_arrays(self, src: np.ndarray, dst: np.ndarray, weights: np.ndarray) -> None:
        self.src.extend(np.asarray(src).tolist())
        self.dst.extend(np.asarray(dst).tolist())
        self.w.extend(np.asarray(weights, dtype=np.float64).tolist())

    def csr(self, deduplicate: bool = False) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, indices, weights)``; ``deduplicate`` keeps the minimum
        weight of each parallel-edge group."""
        src = np.asarray(self.src, dtype=np.int64)
        dst = np.asarray(self.dst, dtype=np.int64)
        w = np.asarray(self.w, dtype=np.float64)
        if deduplicate and src.size:
            best: Dict[Tuple[int, int], float] = {}
            for u, v, x in zip(self.src, self.dst, self.w):
                best[(u, v)] = min(best.get((u, v), x), x)
            pairs = sorted(best)
            src = np.asarray([u for u, _v in pairs], dtype=np.int64)
            dst = np.asarray([v for _u, v in pairs], dtype=np.int64)
            w = np.asarray([best[p] for p in pairs], dtype=np.float64)
        return csr_arrays_from_edges(src, dst, w, self.num_vertices)


# ----------------------------------------------------------------------
# graph storage
# ----------------------------------------------------------------------
def reverse_csr_reference(
    graph: DiGraph,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rindptr, rindices, rweights)``: each vertex's in-edges in forward
    CSR order (source, then position in the source's row), parallel edges
    kept."""
    n = graph.num_vertices
    incoming: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
    for u, v, w in graph.edges():
        incoming[v].append((u, w))
    rindptr = np.zeros(n + 1, dtype=np.int64)
    rindptr[1:] = np.cumsum([len(edges) for edges in incoming])
    sources = [u for edges in incoming for u, _w in edges]
    weights = [w for edges in incoming for _u, w in edges]
    return (
        rindptr,
        np.asarray(sources, dtype=np.int64),
        np.asarray(weights, dtype=np.float64),
    )
