"""Linear deterministic greedy (LDG) streaming partitioner.

Stanton & Kliot, KDD 2012 — reference [36] of the paper, the
"state-of-the-art partitioning algorithm" that §4.1 tested and excluded
because the skewed query workload made its partitions unusable (2-6x worse
latency).  We implement the standard formulation: vertices arrive in a
stream; vertex ``v`` goes to the partition maximising

    |N(v) ∩ P_i| * (1 - |P_i| / C)

where ``C = (1 + slack) * n / k`` is the per-partition capacity.  Ties are
broken toward the smaller partition, then the lower index (deterministic).

:meth:`~LdgPartitioner.partition` is *batched*: the stream is processed in
chunks whose undirected neighbourhoods are pre-gathered from the cached CSR
views, and each vertex's neighbour-partition counts are one ``bincount``
over its slice.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.graph.digraph import DiGraph
from repro.partitioning.base import Partitioner, iter_neighbor_chunks

__all__ = ["LdgPartitioner", "ldg_place_vertices"]


def ldg_place_vertices(
    graph: DiGraph,
    new_ids: np.ndarray,
    assignment: np.ndarray,
    k: int,
    slack: float = 0.1,
) -> np.ndarray:
    """Streaming LDG placement of vertices appended to a running system.

    This is the incremental form of :class:`LdgPartitioner`: the existing
    ``assignment`` fixes the partitions, and each new vertex (in id order —
    its arrival order in the graph stream) goes to the partition maximising
    ``|N(v) ∩ P_i| * (1 - |P_i| / C)`` with the same deterministic
    tie-breaks, where ``N(v)`` is the undirected neighbourhood already
    materialised in the graph.  Earlier new vertices count as placed when
    scoring later ones.  Returns the owner of each id in ``new_ids``.
    """
    new_ids = np.asarray(new_ids, dtype=np.int64)
    sizes = np.bincount(assignment, minlength=k)[:k].astype(np.int64)
    total = assignment.size + new_ids.size
    capacity = (1.0 + slack) * total / k if total else 1.0
    combined = np.full(graph.num_vertices, -1, dtype=np.int64)
    combined[: assignment.size] = assignment
    placed = np.empty(new_ids.size, dtype=np.int64)
    for i, v in enumerate(new_ids):
        neighbors = np.concatenate(
            [graph.out_neighbors(int(v)), graph.in_neighbors(int(v))]
        )
        owners = combined[neighbors] if neighbors.size else np.empty(0, np.int64)
        neighbor_counts = np.bincount(
            owners[owners >= 0], minlength=k
        ).astype(np.float64)[:k]
        penalty = 1.0 - sizes / capacity
        scores = neighbor_counts * np.maximum(penalty, 0.0)
        best = np.flatnonzero(scores == scores.max())
        if best.size > 1:
            best = best[np.argsort(sizes[best], kind="stable")]
        choice = int(best[0])
        if sizes[choice] >= capacity:
            choice = int(np.argmin(sizes))
        combined[v] = choice
        placed[i] = choice
        sizes[choice] += 1
    return placed


class LdgPartitioner(Partitioner):
    """Streaming LDG with configurable stream order.

    Parameters
    ----------
    slack:
        Capacity slack; capacity per partition is ``(1 + slack) * n / k``.
    order:
        ``"natural"`` (vertex id order — spatially correlated for our road
        networks, the favourable case), ``"random"``, or ``"bfs"``.
    """

    name = "ldg"

    def __init__(self, slack: float = 0.1, order: str = "natural", seed: int = 0) -> None:
        if order not in ("natural", "random", "bfs"):
            raise ValueError(f"unknown stream order {order!r}")
        self.slack = float(slack)
        self.order = order
        self.seed = int(seed)

    # ------------------------------------------------------------------
    def _stream(self, graph: DiGraph) -> np.ndarray:
        n = graph.num_vertices
        if self.order == "natural":
            return np.arange(n, dtype=np.int64)
        if self.order == "random":
            rng = np.random.default_rng(self.seed)
            return rng.permutation(n).astype(np.int64)
        return np.asarray(self._bfs_order(graph), dtype=np.int64)

    def _bfs_order(self, graph: DiGraph) -> Iterable[int]:
        n = graph.num_vertices
        seen = np.zeros(n, dtype=bool)
        order = []
        from collections import deque

        for root in range(n):
            if seen[root]:
                continue
            seen[root] = True
            queue = deque([root])
            while queue:
                u = queue.popleft()
                order.append(u)
                for v in graph.out_neighbors(u):
                    if not seen[v]:
                        seen[v] = True
                        queue.append(int(v))
        return order

    # ------------------------------------------------------------------
    def partition(self, graph: DiGraph, k: int) -> np.ndarray:
        self._check_k(graph, k)
        n = graph.num_vertices
        assignment = np.full(n, -1, dtype=np.int64)
        sizes = np.zeros(k, dtype=np.int64)
        capacity = (1.0 + self.slack) * n / k if n else 1.0

        for chunk, neighbors, offsets in iter_neighbor_chunks(
            graph, self._stream(graph)
        ):
            for i in range(chunk.size):
                owners = assignment[neighbors[offsets[i] : offsets[i + 1]]]
                neighbor_counts = np.bincount(
                    owners[owners >= 0], minlength=k
                ).astype(np.float64)
                penalty = 1.0 - sizes / capacity
                scores = neighbor_counts * np.maximum(penalty, 0.0)
                best = np.flatnonzero(scores == scores.max())
                if best.size > 1:
                    # tie-break toward the least loaded, then lowest index
                    best = best[np.argsort(sizes[best], kind="stable")]
                choice = int(best[0])
                if sizes[choice] >= capacity:
                    choice = int(np.argmin(sizes))
                assignment[chunk[i]] = choice
                sizes[choice] += 1
        return assignment
