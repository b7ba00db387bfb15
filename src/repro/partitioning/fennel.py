"""FENNEL streaming partitioner.

Tsourakakis et al., WSDM 2014 — reference [37] of the paper, included as an
additional query-agnostic baseline in our ablation benches.  Vertex ``v`` is
assigned to the partition maximising

    |N(v) ∩ P_i| - alpha * gamma * |P_i|^(gamma - 1)

with the standard parameterisation ``gamma = 1.5`` and
``alpha = sqrt(k) * m / n^1.5``.

Like LDG, :meth:`~FennelPartitioner.partition` is batched over
pre-gathered CSR neighbourhood chunks (one ``bincount`` per vertex).
"""

from __future__ import annotations

import numpy as np

from repro.graph.digraph import DiGraph
from repro.partitioning.base import Partitioner, iter_neighbor_chunks

__all__ = ["FennelPartitioner"]


class FennelPartitioner(Partitioner):
    """Streaming FENNEL with natural or seeded-random stream order."""

    name = "fennel"

    def __init__(
        self,
        gamma: float = 1.5,
        balance_slack: float = 0.1,
        order: str = "natural",
        seed: int = 0,
    ) -> None:
        if order not in ("natural", "random"):
            raise ValueError(f"unknown stream order {order!r}")
        self.gamma = float(gamma)
        self.balance_slack = float(balance_slack)
        self.order = order
        self.seed = int(seed)

    def _stream(self, graph: DiGraph) -> np.ndarray:
        n = graph.num_vertices
        if self.order == "natural":
            return np.arange(n, dtype=np.int64)
        return np.random.default_rng(self.seed).permutation(n).astype(np.int64)

    def partition(self, graph: DiGraph, k: int) -> np.ndarray:
        self._check_k(graph, k)
        n = graph.num_vertices
        m = graph.num_edges
        if n == 0:
            return np.empty(0, dtype=np.int64)
        alpha = np.sqrt(k) * m / max(n**1.5, 1.0)
        capacity = (1.0 + self.balance_slack) * n / k

        assignment = np.full(n, -1, dtype=np.int64)
        sizes = np.zeros(k, dtype=np.float64)
        for chunk, neighbors, offsets in iter_neighbor_chunks(
            graph, self._stream(graph)
        ):
            for i in range(chunk.size):
                owners = assignment[neighbors[offsets[i] : offsets[i + 1]]]
                neighbor_counts = np.bincount(
                    owners[owners >= 0], minlength=k
                ).astype(np.float64)
                penalty = alpha * self.gamma * np.power(
                    np.maximum(sizes, 0.0), self.gamma - 1.0
                )
                scores = neighbor_counts - penalty
                scores[sizes >= capacity] = -np.inf
                best = np.flatnonzero(scores == scores.max())
                if best.size > 1:
                    best = best[np.argsort(sizes[best], kind="stable")]
                choice = int(best[0])
                assignment[chunk[i]] = choice
                sizes[choice] += 1.0
        return assignment
