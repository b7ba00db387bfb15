"""Compressed-sparse-row directed graph.

This is the storage substrate every other subsystem builds on.  The paper's
system (25k lines of Java) stores the road network as an adjacency structure
with per-edge travel-time weights; we use the classic CSR layout on top of
numpy arrays, which gives O(1) out-neighbour slicing and a compact memory
footprint even for the GY-scale graphs.

The out-adjacency (for message sending) is the graph; the in-adjacency
(for the streaming partitioners and reverse traversals) is a reverse CSR
derived from it on the first read and cached until the adjacency changes —
the engine's kernels never read it, so a graph they run on never pays for
it.  The graph is immutable after construction; bulk construction happens
through :class:`repro.graph.builder.GraphBuilder`, and streaming topology
mutation through the :class:`repro.graph.delta.MutableDiGraph` subclass
(batched deltas with periodic CSR rebuilds).

Vertices are dense integer ids ``0 .. n-1``.  Optional per-vertex attributes
used by the reproduction:

``coords``
    (n, 2) float array of planar coordinates (road networks, Domain
    partitioning, Euclidean query generation).
``tags``
    boolean array marking point-of-interest vertices (gas stations in the
    paper's POI query, §4.1).
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import GraphError

__all__ = ["DiGraph", "CSRView"]


class CSRView(NamedTuple):
    """Borrowed view of the out-adjacency CSR arrays.

    Handed to the vectorized iteration kernels so the hot path does a single
    attribute lookup per iteration instead of three property calls per edge
    expansion.  The arrays are the graph's own buffers — do not mutate.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray


class DiGraph:
    """An immutable weighted directed graph in CSR form.

    Parameters
    ----------
    indptr, indices, weights:
        Standard CSR arrays for the out-adjacency: the out-neighbours of
        vertex ``v`` are ``indices[indptr[v]:indptr[v+1]]`` with edge weights
        ``weights[indptr[v]:indptr[v+1]]``.
    coords:
        Optional (n, 2) array of planar vertex coordinates.
    tags:
        Optional (n,) boolean array of point-of-interest markers.

    Notes
    -----
    The constructor validates the CSR invariants; use
    :class:`~repro.graph.builder.GraphBuilder` or the generator functions in
    :mod:`repro.graph.generators` to obtain well-formed instances.
    """

    __slots__ = (
        "_indptr",
        "_indices",
        "_weights",
        "_coords",
        "_tags",
        "_csr_view",
        "_csr_in_view",
        "name",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        coords: Optional[np.ndarray] = None,
        tags: Optional[np.ndarray] = None,
        name: str = "graph",
    ) -> None:
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        if indptr.ndim != 1 or indptr.size == 0:
            raise GraphError("indptr must be a non-empty 1-d array")
        if indptr[0] != 0:
            raise GraphError("indptr must start at 0")
        if np.any(np.diff(indptr) < 0):
            raise GraphError("indptr must be non-decreasing")
        if indptr[-1] != indices.size:
            raise GraphError(
                f"indptr[-1]={indptr[-1]} does not match number of edges {indices.size}"
            )
        if weights.size != indices.size:
            raise GraphError("weights and indices must have equal length")
        n = indptr.size - 1
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise GraphError("edge endpoint out of range")
        if np.any(weights < 0):
            raise GraphError("negative edge weights are not supported")

        self._indptr = indptr
        self._indices = indices
        self._weights = weights
        self.name = name

        if coords is not None:
            coords = np.asarray(coords, dtype=np.float64)
            if coords.shape != (n, 2):
                raise GraphError(f"coords must have shape ({n}, 2), got {coords.shape}")
        self._coords = coords

        if tags is not None:
            tags = np.asarray(tags, dtype=bool)
            if tags.shape != (n,):
                raise GraphError(f"tags must have shape ({n},), got {tags.shape}")
        self._tags = tags

        self._csr_view: Optional[CSRView] = None
        self._csr_in_view: Optional[CSRView] = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _build_reverse(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Materialise the in-adjacency (reverse CSR) from the out-adjacency."""
        n = self.num_vertices
        m = self.num_edges
        rindptr = np.zeros(n + 1, dtype=np.int64)
        if m == 0:
            return rindptr, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        counts = np.bincount(self._indices, minlength=n)
        rindptr[1:] = np.cumsum(counts)
        sources = np.repeat(np.arange(n, dtype=np.int64), np.diff(self._indptr))
        order = np.argsort(self._indices, kind="stable")
        return rindptr, sources[order], self._weights[order]

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self._indptr.size - 1

    @property
    def num_edges(self) -> int:
        """Number of directed edges ``m``."""
        return self._indices.size

    @property
    def indptr(self) -> np.ndarray:
        """CSR row-pointer array of the out-adjacency (read-only view)."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """CSR column-index array of the out-adjacency (read-only view)."""
        return self._indices

    @property
    def weights(self) -> np.ndarray:
        """CSR edge-weight array of the out-adjacency (read-only view)."""
        return self._weights

    @property
    def coords(self) -> Optional[np.ndarray]:
        """Planar vertex coordinates or ``None``."""
        return self._coords

    @property
    def tags(self) -> Optional[np.ndarray]:
        """Boolean point-of-interest markers or ``None``."""
        return self._tags

    def csr(self) -> CSRView:
        """Cached :class:`CSRView` of the out-adjacency for the kernel layer.

        The view is built on first use and cached; :class:`DiGraph` is
        immutable, but any future mutating subclass must call
        :meth:`_invalidate_csr` after changing the adjacency arrays.
        """
        view = self._csr_view
        if view is None:
            view = CSRView(self._indptr, self._indices, self._weights)
            self._csr_view = view
        return view

    def csr_in(self) -> CSRView:
        """Cached :class:`CSRView` of the in-adjacency (reverse CSR).

        The batched streaming partitioners score a vertex's undirected
        neighbourhood from one forward and one reverse CSR slice.  The
        reverse arrays are built from the out-adjacency on first use and
        cached until :meth:`_invalidate_csr`; every in-adjacency read goes
        through here.
        """
        view = self._csr_in_view
        if view is None:
            view = CSRView(*self._build_reverse())
            self._csr_in_view = view
        return view

    def _invalidate_csr(self) -> None:
        """Drop the cached CSR views and the in-adjacency (call after
        mutating adjacency arrays)."""
        self._csr_view = None
        self._csr_in_view = None

    def has_coords(self) -> bool:
        """Whether planar coordinates are attached."""
        return self._coords is not None

    def has_tags(self) -> bool:
        """Whether point-of-interest tags are attached."""
        return self._tags is not None

    # ------------------------------------------------------------------
    # adjacency access
    # ------------------------------------------------------------------
    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.num_vertices:
            raise GraphError(f"vertex {v} out of range [0, {self.num_vertices})")

    def out_neighbors(self, v: int) -> np.ndarray:
        """Out-neighbour ids of ``v`` as a numpy view."""
        self._check_vertex(v)
        return self._indices[self._indptr[v] : self._indptr[v + 1]]

    def out_weights(self, v: int) -> np.ndarray:
        """Weights of the out-edges of ``v``, aligned with :meth:`out_neighbors`."""
        self._check_vertex(v)
        return self._weights[self._indptr[v] : self._indptr[v + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        """In-neighbour ids of ``v`` as a numpy view."""
        self._check_vertex(v)
        rin = self.csr_in()
        return rin.indices[rin.indptr[v] : rin.indptr[v + 1]]

    def in_weights(self, v: int) -> np.ndarray:
        """Weights of the in-edges of ``v``, aligned with :meth:`in_neighbors`."""
        self._check_vertex(v)
        rin = self.csr_in()
        return rin.weights[rin.indptr[v] : rin.indptr[v + 1]]

    def out_degree(self, v: int) -> int:
        """Number of out-edges of ``v``."""
        self._check_vertex(v)
        return int(self._indptr[v + 1] - self._indptr[v])

    def in_degree(self, v: int) -> int:
        """Number of in-edges of ``v``."""
        self._check_vertex(v)
        rindptr = self.csr_in().indptr
        return int(rindptr[v + 1] - rindptr[v])

    def out_degrees(self) -> np.ndarray:
        """Vector of out-degrees for all vertices."""
        return np.diff(self._indptr)

    def in_degrees(self) -> np.ndarray:
        """Vector of in-degrees for all vertices."""
        return np.diff(self.csr_in().indptr)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the directed edge ``u -> v`` exists."""
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(np.any(self.out_neighbors(u) == v))

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge ``u -> v``; raises :class:`GraphError` if absent.

        If parallel edges exist, the smallest weight is returned (consistent
        with shortest-path semantics).
        """
        neigh = self.out_neighbors(u)
        mask = neigh == v
        if not np.any(mask):
            raise GraphError(f"edge {u}->{v} does not exist")
        return float(self.out_weights(u)[mask].min())

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate all edges as ``(u, v, weight)`` triples."""
        for u in range(self.num_vertices):
            lo, hi = self._indptr[u], self._indptr[u + 1]
            for i in range(lo, hi):
                yield u, int(self._indices[i]), float(self._weights[i])

    def edge_array(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(sources, targets, weights)`` arrays of all edges."""
        sources = np.repeat(
            np.arange(self.num_vertices, dtype=np.int64), np.diff(self._indptr)
        )
        return sources, self._indices.copy(), self._weights.copy()

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def tagged_vertices(self) -> np.ndarray:
        """Ids of vertices with a point-of-interest tag."""
        if self._tags is None:
            return np.empty(0, dtype=np.int64)
        return np.flatnonzero(self._tags)

    def euclidean(self, u: int, v: int) -> float:
        """Euclidean distance between the coordinates of two vertices."""
        if self._coords is None:
            raise GraphError("graph has no coordinates")
        self._check_vertex(u)
        self._check_vertex(v)
        return float(np.linalg.norm(self._coords[u] - self._coords[v]))

    def subgraph_edge_count(self, vertex_set: Sequence[int]) -> int:
        """Number of edges with both endpoints inside ``vertex_set``."""
        members = np.zeros(self.num_vertices, dtype=bool)
        members[np.asarray(list(vertex_set), dtype=np.int64)] = True
        sources, targets, _ = self.edge_array()
        return int(np.count_nonzero(members[sources] & members[targets]))

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DiGraph(name={self.name!r}, n={self.num_vertices}, "
            f"m={self.num_edges}, coords={self.has_coords()}, tags={self.has_tags()})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        same_structure = (
            np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
            and np.allclose(self._weights, other._weights)
        )
        if not same_structure:
            return False
        if (self._coords is None) != (other._coords is None):
            return False
        if self._coords is not None and not np.allclose(self._coords, other._coords):
            return False
        if (self._tags is None) != (other._tags is None):
            return False
        if self._tags is not None and not np.array_equal(self._tags, other._tags):
            return False
        return True

    def __hash__(self) -> int:  # graphs are mutable-free; identity hash is fine
        return id(self)
