"""Linear deterministic greedy (LDG) streaming partitioner.

Stanton & Kliot, KDD 2012 — reference [36] of the paper, the
"state-of-the-art partitioning algorithm" that §4.1 tested and excluded
because the skewed query workload made its partitions unusable (2-6x worse
latency).  We implement the standard formulation: vertices arrive in a
stream; vertex ``v`` goes to the partition maximising

    |N(v) ∩ P_i| * (1 - |P_i| / C)

where ``C = (1 + SLACK) * n / k`` is the per-partition capacity.  Ties are
broken toward the smaller partition, then the lower index (deterministic).

:meth:`~LdgPartitioner.partition` is *batched*: the stream is processed in
chunks whose undirected neighbourhoods are pre-gathered from the cached CSR
views, and each vertex's neighbour-partition counts are one ``bincount``
over its slice.
"""

from __future__ import annotations

import numpy as np

from repro.graph.digraph import DiGraph
from repro.partitioning.base import Partitioner, iter_neighbor_chunks

__all__ = ["LdgPartitioner", "ldg_place_vertices"]

#: capacity slack: a partition holds at most ``(1 + SLACK) * n / k`` vertices
SLACK = 0.1


def ldg_place_vertices(
    graph: DiGraph,
    new_ids: np.ndarray,
    assignment: np.ndarray,
    k: int,
) -> np.ndarray:
    """Streaming LDG placement of vertices appended to a running system.

    This is the incremental form of :class:`LdgPartitioner`: the existing
    ``assignment`` fixes the partitions, and each new vertex (in id order —
    its arrival order in the graph stream) goes to the partition maximising
    ``|N(v) ∩ P_i| * (1 - |P_i| / C)`` with the same deterministic
    tie-breaks, where ``N(v)`` is the undirected neighbourhood already
    materialised in the graph.  Earlier new vertices count as placed when
    scoring later ones.  Returns the owner of each id in ``new_ids``.

    The in-neighbours come from one pass over the forward CSR (the edges
    into a new id), so a churn epoch never builds the reverse CSR; their
    order differs from ``in_neighbors``' but :func:`_place` only counts them.
    """
    new_ids = np.asarray(new_ids, dtype=np.int64)
    sizes = np.bincount(assignment, minlength=k)[:k].astype(np.int64)
    total = assignment.size + new_ids.size
    capacity = (1.0 + SLACK) * total / k if total else 1.0
    combined = np.full(graph.num_vertices, -1, dtype=np.int64)
    combined[: assignment.size] = assignment
    out = graph.csr()
    is_new = np.zeros(graph.num_vertices, dtype=bool)
    is_new[new_ids] = True
    into = np.flatnonzero(is_new[out.indices])
    targets = out.indices[into]
    order = np.argsort(targets, kind="stable")
    targets = targets[order]
    sources = np.searchsorted(out.indptr, into[order], side="right") - 1
    first = np.searchsorted(targets, new_ids, side="left")
    last = np.searchsorted(targets, new_ids, side="right")
    placed = np.empty(new_ids.size, dtype=np.int64)
    for i, v in enumerate(new_ids.tolist()):
        neighbors = np.concatenate(
            [
                out.indices[out.indptr[v] : out.indptr[v + 1]],
                sources[first[i] : last[i]],
            ]
        )
        combined[v] = placed[i] = _place(combined[neighbors], sizes, capacity, k)
    return placed


def _place(owners: np.ndarray, sizes: np.ndarray, capacity: float, k: int) -> int:
    """LDG's scoring step for one streamed vertex: the partition with the
    highest ``|N(v) ∩ P_i| * (1 - |P_i| / C)`` over the neighbours'
    ``owners`` (``-1``: not placed yet), ties toward the least loaded, then
    the lowest index; the least loaded partition when that one is full.
    Counts the vertex into ``sizes``."""
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
    sizes[choice] += 1
    return choice


class LdgPartitioner(Partitioner):
    """Streaming LDG over the vertices in id order — spatially correlated
    for our road networks, the favourable case."""

    name = "ldg"

    def partition(self, graph: DiGraph, k: int) -> np.ndarray:
        self._check_k(graph, k)
        n = graph.num_vertices
        assignment = np.full(n, -1, dtype=np.int64)
        sizes = np.zeros(k, dtype=np.int64)
        capacity = (1.0 + SLACK) * n / k if n else 1.0

        for chunk, neighbors, offsets in iter_neighbor_chunks(graph):
            for i in range(chunk.size):
                owners = assignment[neighbors[offsets[i] : offsets[i + 1]]]
                assignment[chunk[i]] = _place(owners, sizes, capacity, k)
        return assignment
