"""Partitioning-quality metrics on graphs.

These are the classic *query-agnostic* metrics (edge-cut, vertex balance)
that the paper's Figure 1 contrasts against the *query-aware* query-cut
metric (which lives in :mod:`repro.core.cost` because it needs query
scopes, not just structure).
"""

from __future__ import annotations

import numpy as np

from repro.errors import PartitioningError
from repro.graph.digraph import DiGraph

__all__ = ["edge_cut", "vertex_balance", "partition_sizes"]


def _validate_assignment(graph: DiGraph, assignment: np.ndarray) -> np.ndarray:
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.shape != (graph.num_vertices,):
        raise PartitioningError(
            f"assignment must have shape ({graph.num_vertices},), got {assignment.shape}"
        )
    if assignment.size and assignment.min() < 0:
        raise PartitioningError("assignment contains negative worker ids")
    return assignment


def edge_cut(graph: DiGraph, assignment: np.ndarray) -> int:
    """Number of directed edges whose endpoints live on different workers."""
    assignment = _validate_assignment(graph, assignment)
    sources, targets, _ = graph.edge_array()
    return int(np.count_nonzero(assignment[sources] != assignment[targets]))


def partition_sizes(graph: DiGraph, assignment: np.ndarray, k: int) -> np.ndarray:
    """Vertices per worker as a length-``k`` vector."""
    assignment = _validate_assignment(graph, assignment)
    if assignment.size and assignment.max() >= k:
        raise PartitioningError("assignment references worker >= k")
    return np.bincount(assignment, minlength=k).astype(np.int64)


def vertex_balance(graph: DiGraph, assignment: np.ndarray, k: int) -> float:
    """Max/mean vertex-count ratio; 1.0 is perfectly balanced."""
    sizes = partition_sizes(graph, assignment, k)
    mean = sizes.mean()
    if mean == 0:
        return 1.0
    return float(sizes.max() / mean)
