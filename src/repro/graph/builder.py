"""Mutable builder producing immutable :class:`~repro.graph.digraph.DiGraph`.

The builder accumulates edges as numpy array chunks (24 B an edge; single
edges are buffered in short Python lists and flushed to a chunk) and performs
a single vectorised CSR conversion in :meth:`GraphBuilder.build`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graph.digraph import DiGraph

__all__ = ["GraphBuilder", "csr_arrays_from_edges", "edge_keys"]

#: single edges buffered as Python scalars before they become a chunk
#: (~190 B an edge in lists, 24 B in a chunk)
_SCALAR_FLUSH = 4096


def edge_keys(src: np.ndarray, dst: np.ndarray, num_vertices: int) -> np.ndarray:
    """One int64 key ``src * n + dst`` per edge, for endpoints in ``[0, n)``.

    Keys order like ``(src, dst)`` pairs, so they ascend exactly when the
    edges are in canonical CSR order.  Built with one temporary, not two:
    on a 50 000-edge graph the second one showed as 0.5 MiB of peak RSS.
    """
    n = int(num_vertices)
    if n * n >= 2**63:
        raise GraphError(f"{n} vertices: (src, dst) no longer fits one int64 key")
    keys = src * n
    keys += dst
    return keys


def csr_arrays_from_edges(
    src: np.ndarray, dst: np.ndarray, weights: np.ndarray, num_vertices: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical CSR arrays from an edge list: ``(indptr, indices, weights)``.

    Edges are ordered by ``(src, dst)`` lexicographically, parallel edges
    in the order given.  This is *the* construction every CSR producer
    shares (:meth:`GraphBuilder.build`, the churn layer's
    :meth:`~repro.graph.delta.MutableDiGraph.apply_delta` rebuild and its
    :func:`~repro.graph.delta.fresh_rebuild` oracle), so a rebuilt graph is
    array-for-array identical to fresh construction by design rather than
    by parallel-maintained copies.

    One stable sort on :func:`edge_keys` — the permutation of the stable
    ``np.lexsort((dst, src))`` for endpoints in ``[0, n)`` (out-of-range
    ones are the :class:`DiGraph` constructor's to reject), at a twentieth
    of its cost on an almost-ordered edge list.
    """
    n = int(num_vertices)
    order = np.argsort(edge_keys(src, dst, n), kind="stable")
    src, dst, weights = src[order], dst[order], weights[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    if src.size:
        indptr[1:] = np.cumsum(np.bincount(src, minlength=n))
    return indptr, dst, weights


class GraphBuilder:
    """Incrementally assemble a directed weighted graph.

    Parameters
    ----------
    num_vertices:
        Number of vertices; may be grown later with :meth:`add_vertices`.

    Examples
    --------
    >>> b = GraphBuilder(3)
    >>> b.add_edge(0, 1, 2.0)
    >>> b.add_edge(1, 2, 1.5)
    >>> g = b.build(name="tiny")
    >>> g.num_edges
    2
    """

    def __init__(self, num_vertices: int = 0) -> None:
        if num_vertices < 0:
            raise GraphError("num_vertices must be non-negative")
        self._n = int(num_vertices)
        #: the edges so far as ``(src, dst, weights)`` array chunks, in
        #: insertion order ...
        self._chunks: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._chunk_edges = 0
        #: ... followed by the single edges added since the last chunk
        self._src: List[int] = []
        self._dst: List[int] = []
        self._w: List[float] = []
        #: coordinates by vertex id (zero where never set), grown on
        #: demand; ``None`` until the first coordinate arrives
        self._coords: Optional[np.ndarray] = None
        self._tags: Dict[int, bool] = {}

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Current number of vertices."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of edges added so far."""
        return self._chunk_edges + len(self._src)

    def add_vertices(self, count: int) -> int:
        """Append ``count`` fresh vertices; returns the id of the first one."""
        if count < 0:
            raise GraphError("count must be non-negative")
        first = self._n
        self._n += count
        return first

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Add the directed edge ``u -> v``."""
        if not (0 <= u < self._n and 0 <= v < self._n):
            raise GraphError(f"edge ({u}, {v}) references unknown vertex")
        if weight < 0:
            raise GraphError("negative edge weights are not supported")
        self._src.append(int(u))
        self._dst.append(int(v))
        self._w.append(float(weight))
        if len(self._src) >= _SCALAR_FLUSH:
            self._flush_scalars()

    def add_bidirectional_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Add both ``u -> v`` and ``v -> u`` (road segments are two-way)."""
        self.add_edge(u, v, weight)
        self.add_edge(v, u, weight)

    def add_edges(self, edges: Iterable[Tuple[int, int, float]]) -> None:
        """Add many ``(u, v, weight)`` triples."""
        for u, v, w in edges:
            self.add_edge(u, v, w)

    def add_edge_arrays(
        self, src: np.ndarray, dst: np.ndarray, weights: np.ndarray
    ) -> None:
        """Add the directed edges ``src[i] -> dst[i]`` in one call.

        Same validation and same resulting edge order as calling
        :meth:`add_edge` once per element.
        """
        # copies: the chunk is kept until build(), so an alias of a
        # caller-reused buffer would corrupt the graph
        src = np.array(src, dtype=np.int64)
        dst = np.array(dst, dtype=np.int64)
        weights = np.array(weights, dtype=np.float64)
        if not (src.ndim == 1 and src.shape == dst.shape == weights.shape):
            raise GraphError("src, dst and weights must be 1-d arrays of equal length")
        if src.size == 0:
            return
        if min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= self._n:
            raise GraphError("edge array references unknown vertex")
        if np.any(weights < 0):
            raise GraphError("negative edge weights are not supported")
        self._flush_scalars()
        self._append_chunk(src, dst, weights)

    def _append_chunk(self, src: np.ndarray, dst: np.ndarray, weights: np.ndarray) -> None:
        self._chunks.append((src, dst, weights))
        self._chunk_edges += src.size

    def _flush_scalars(self) -> None:
        """Move the buffered single edges into a chunk, keeping edge order."""
        if self._src:
            self._append_chunk(
                np.array(self._src, dtype=np.int64),
                np.array(self._dst, dtype=np.int64),
                np.array(self._w, dtype=np.float64),
            )
            self._src, self._dst, self._w = [], [], []

    def _edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every edge so far as one ``(src, dst, weights)`` chunk.

        The chunks are merged in place, so the builder never holds its
        edges twice and a second :meth:`build` starts from the merged chunk.
        """
        self._flush_scalars()
        if not self._chunks:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, np.empty(0, dtype=np.float64)
        if len(self._chunks) > 1:
            srcs, dsts, weights = zip(*self._chunks)
            self._chunks = [
                (np.concatenate(srcs), np.concatenate(dsts), np.concatenate(weights))
            ]
        return self._chunks[0]

    def _coord_rows(self) -> np.ndarray:
        """The coordinate array, grown to cover every current vertex."""
        coords = self._coords
        if coords is None:
            coords = self._coords = np.zeros((self._n, 2))
        elif coords.shape[0] < self._n:
            grown = np.zeros((max(self._n, 2 * coords.shape[0]), 2))
            grown[: coords.shape[0]] = coords
            coords = self._coords = grown
        return coords

    def set_coord(self, v: int, x: float, y: float) -> None:
        """Attach a planar coordinate to vertex ``v``."""
        if not 0 <= v < self._n:
            raise GraphError(f"vertex {v} out of range")
        self._coord_rows()[v] = (x, y)

    def set_coords(self, vertices: np.ndarray, xy: np.ndarray) -> None:
        """Attach the planar coordinates ``xy[i]`` to ``vertices[i]``."""
        vertices = np.asarray(vertices, dtype=np.int64)
        xy = np.asarray(xy, dtype=np.float64)
        if xy.shape != (vertices.size, 2):
            raise GraphError("xy must have one (x, y) row per vertex")
        if vertices.size == 0:
            return
        if vertices.min() < 0 or vertices.max() >= self._n:
            raise GraphError("coordinate array references unknown vertex")
        self._coord_rows()[vertices] = xy

    def set_tag(self, v: int, tagged: bool = True) -> None:
        """Mark vertex ``v`` as a point of interest."""
        if not 0 <= v < self._n:
            raise GraphError(f"vertex {v} out of range")
        self._tags[v] = bool(tagged)

    # ------------------------------------------------------------------
    def build(self, name: str = "graph", deduplicate: bool = False) -> DiGraph:
        """Produce the immutable CSR graph.

        Parameters
        ----------
        name:
            Human-readable graph name carried on the result.
        deduplicate:
            When True, parallel edges ``(u, v)`` are merged keeping the
            minimum weight (shortest-path semantics).
        """
        n = self._n
        src, dst, w = self._edge_arrays()

        if deduplicate and src.size:
            # Sort by (src, dst, weight) so the first of each (src, dst) group
            # carries the minimum weight, then drop the rest of the group.
            order = np.lexsort((w, dst, src))
            src, dst, w = src[order], dst[order], w[order]
            keep = np.ones(src.size, dtype=bool)
            keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
            src, dst, w = src[keep], dst[keep], w[keep]

        indptr, dst, w = csr_arrays_from_edges(src, dst, w, n)

        coords: Optional[np.ndarray] = None
        if self._coords is not None:
            coords = self._coord_rows()[:n].copy()

        tags: Optional[np.ndarray] = None
        if self._tags:
            tags = np.zeros(n, dtype=bool)
            for v, t in self._tags.items():
                tags[v] = t

        return DiGraph(indptr, dst, w, coords=coords, tags=tags, name=name)
