"""Partitioner interface.

A *partitioning* in this library is simply a numpy ``int64`` array mapping
each vertex id to a worker id in ``[0, k)`` — the assignment function
``A : V -> W`` of §2 at a fixed point in time.  Dynamic reassignment (the
``A : V x T -> W`` of the paper) is carried out by the engine applying the
controller's move requests on top of an initial static partitioning.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import PartitioningError
from repro.graph.digraph import DiGraph
from repro.util import concat_ranges

__all__ = ["Partitioner", "validate_partitioning", "iter_neighbor_chunks"]


def _gather_ranges(
    src: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    dst: np.ndarray,
    dst_starts: np.ndarray,
) -> None:
    """Copy ``src[starts[i] : starts[i]+counts[i]]`` into ``dst`` at
    ``dst_starts[i]`` for all ``i`` without a Python loop."""
    dst[concat_ranges(dst_starts, counts)] = src[concat_ranges(starts, counts)]


def iter_neighbor_chunks(graph: DiGraph, chunk_size: int = 2048):
    """Stream the vertex ids ``0 .. n-1`` in chunks with pre-gathered
    undirected neighbourhoods.

    For each chunk of stream vertices this yields ``(vertices, neighbors,
    offsets)`` where ``neighbors[offsets[i] : offsets[i+1]]`` are the out-
    plus in-neighbours of ``vertices[i]``, gathered from the cached
    :meth:`~repro.graph.digraph.DiGraph.csr` / ``csr_in`` views in a handful
    of vectorized copies per chunk.  The streaming partitioners then score
    each vertex with a single ``bincount`` over its slice instead of a
    per-neighbour Python loop.
    """
    out = graph.csr()
    rin = graph.csr_in()
    n = graph.num_vertices
    for lo in range(0, n, chunk_size):
        vs = np.arange(lo, min(lo + chunk_size, n), dtype=np.int64)
        out_counts = out.indptr[vs + 1] - out.indptr[vs]
        in_counts = rin.indptr[vs + 1] - rin.indptr[vs]
        degrees = out_counts + in_counts
        offsets = np.zeros(vs.size + 1, dtype=np.int64)
        np.cumsum(degrees, out=offsets[1:])
        neighbors = np.empty(offsets[-1], dtype=np.int64)
        _gather_ranges(out.indices, out.indptr[vs], out_counts, neighbors, offsets[:-1])
        _gather_ranges(
            rin.indices, rin.indptr[vs], in_counts, neighbors, offsets[:-1] + out_counts
        )
        yield vs, neighbors, offsets


class Partitioner(abc.ABC):
    """Strategy interface for computing an initial static partitioning."""

    #: Human-readable name used in benchmark reports.
    name: str = "base"

    @abc.abstractmethod
    def partition(self, graph: DiGraph, k: int) -> np.ndarray:
        """Assign every vertex of ``graph`` to one of ``k`` workers.

        Returns
        -------
        numpy.ndarray
            int64 array of shape ``(graph.num_vertices,)`` with values in
            ``[0, k)``.
        """

    def _check_k(self, graph: DiGraph, k: int) -> None:
        if k < 1:
            raise PartitioningError("k must be >= 1")
        if graph.num_vertices > 0 and k > graph.num_vertices:
            raise PartitioningError(
                f"cannot split {graph.num_vertices} vertices into {k} parts"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


def validate_partitioning(graph: DiGraph, assignment: np.ndarray, k: int) -> None:
    """Raise :class:`PartitioningError` unless ``assignment`` is well formed."""
    assignment = np.asarray(assignment)
    if assignment.shape != (graph.num_vertices,):
        raise PartitioningError(
            f"expected shape ({graph.num_vertices},), got {assignment.shape}"
        )
    if assignment.size == 0:
        return
    if assignment.min() < 0 or assignment.max() >= k:
        raise PartitioningError("assignment values must lie in [0, k)")
