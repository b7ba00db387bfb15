"""Streaming topology mutation: delta buffers over the CSR graph.

The reproduction's :class:`~repro.graph.digraph.DiGraph` is immutable — the
right call for the steady-state hot path, where the kernels want stable CSR
buffers, but it closes off the *graph-churn* scenario axis of continuous
multi-query processing over graph streams (road closures, new road segments,
traffic-induced weight changes, junction churn).

This module adds mutation as a layer on top of the CSR substrate instead of
rewriting it:

:class:`GraphDelta`
    A batched buffer of topology mutations — edge inserts, edge deletes,
    weight updates, vertex additions (:class:`NewVertexSpec`) and vertex
    removals.  Deltas are plain data: workload generators build them against
    the initial topology and the engine applies them later, so application
    is *tolerant* — deleting an edge a previous delta already removed, or
    wiring a new edge to a since-removed vertex, is counted and skipped, not
    an error (exactly like a road authority's change feed).

:class:`MutableDiGraph`
    A :class:`DiGraph` subclass with a pending-delta buffer and a periodic
    CSR rebuild.  Mutations accumulate in the buffer; :meth:`~MutableDiGraph.flush`
    rebuilds the forward CSR (in the same ``(src, dst)`` lexicographic order
    :class:`~repro.graph.builder.GraphBuilder` produces, so a rebuilt graph
    is array-for-array identical to fresh construction from the same edge
    list) and invalidates the cached
    :meth:`~repro.graph.digraph.DiGraph.csr` / ``csr_in`` views the kernels
    and batched partitioners hold.  The reverse CSR is not rebuilt: it is
    derived again on the next in-adjacency read, so churn epochs that no
    partitioner reads between cost no reverse build.  Reads always reflect
    the last flush.

Vertex removal is by *tombstone*: the id space ``0 .. n-1`` stays dense
(everything downstream — assignment arrays, kernel state buffers, scope
stores — indexes by vertex id), the vertex keeps its slot but loses all
incident edges and is marked dead in :attr:`MutableDiGraph.dead_mask`.
Vertex addition appends fresh ids at the end; callers that hold per-vertex
dense state (the engine's assignment, the kernels' distance buffers) grow
their arrays when :meth:`MutableDiGraph.flush` reports growth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graph.builder import csr_arrays_from_edges, edge_keys
from repro.graph.digraph import DiGraph
from repro.util import in_sorted, sorted_unique

__all__ = ["NewVertexSpec", "GraphDelta", "DeltaResult", "MutableDiGraph", "fresh_rebuild"]


@dataclass(frozen=True)
class NewVertexSpec:
    """One vertex to be added, with its initial incident edges.

    The new id is assigned at application time (``n`` at that moment), so
    specs compose across deltas generated up front.  ``edges`` reference
    *existing* vertex ids; edges to since-removed endpoints are skipped.
    """

    x: Optional[float] = None
    y: Optional[float] = None
    tag: bool = False
    #: ``(neighbor, weight)`` pairs; added bidirectionally when
    #: ``bidirectional`` (road segments are two-way)
    edges: Tuple[Tuple[int, float], ...] = ()
    bidirectional: bool = True


@dataclass
class GraphDelta:
    """A batch of topology mutations, applied atomically by one flush."""

    #: ``(u, v, weight)`` directed edges to insert
    insert_edges: List[Tuple[int, int, float]] = field(default_factory=list)
    #: ``(u, v)`` pairs to delete (all parallel ``u -> v`` edges)
    delete_edges: List[Tuple[int, int]] = field(default_factory=list)
    #: ``(u, v, weight)`` — set the weight of all ``u -> v`` edges
    update_weights: List[Tuple[int, int, float]] = field(default_factory=list)
    #: vertices to append (ids assigned at application time)
    new_vertices: List[NewVertexSpec] = field(default_factory=list)
    #: vertex ids to tombstone (incident edges dropped, slot kept)
    remove_vertices: List[int] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(
            self.insert_edges
            or self.delete_edges
            or self.update_weights
            or self.new_vertices
            or self.remove_vertices
        )

    @property
    def num_mutations(self) -> int:
        return (
            len(self.insert_edges)
            + len(self.delete_edges)
            + len(self.update_weights)
            + len(self.new_vertices)
            + len(self.remove_vertices)
        )

    def merge(self, other: "GraphDelta") -> None:
        """Append another delta's mutations (application order preserved)."""
        self.insert_edges.extend(other.insert_edges)
        self.delete_edges.extend(other.delete_edges)
        self.update_weights.extend(other.update_weights)
        self.new_vertices.extend(other.new_vertices)
        self.remove_vertices.extend(other.remove_vertices)


@dataclass(frozen=True)
class DeltaResult:
    """What one flush actually changed (after tolerance filtering)."""

    #: id of the first appended vertex (``None`` when none were added)
    first_new_vertex: Optional[int] = None
    added_vertices: int = 0
    #: ids newly tombstoned by this flush
    removed_vertices: Tuple[int, ...] = ()
    inserted_edges: int = 0
    deleted_edges: int = 0
    updated_weights: int = 0
    #: mutations skipped by tolerance (absent edges, dead endpoints, ...)
    skipped: int = 0

    def __bool__(self) -> bool:
        return bool(
            self.added_vertices
            or self.removed_vertices
            or self.inserted_edges
            or self.deleted_edges
            or self.updated_weights
        )


class MutableDiGraph(DiGraph):
    """A CSR graph with buffered mutations and periodic rebuilds.

    Mutation methods append to a pending :class:`GraphDelta`;
    :meth:`flush` applies the buffer in one vectorized rebuild of the
    forward CSR.  The cached ``csr()`` view and the in-adjacency behind
    ``csr_in()`` are dropped on every rebuild (this is the mutating
    subclass :meth:`DiGraph._invalidate_csr` anticipated) and rebuilt on
    their next read, so kernel iterations dispatched after a flush see the
    new topology while borrowed views from before the flush keep
    referencing the old arrays — never a torn state.

    ``auto_flush_threshold`` bounds the buffer: exceeding it triggers a
    flush on the next mutation, so interactive use cannot accumulate an
    unbounded delta.  The engine flushes explicitly at every
    ``graph_update`` event (one event = one churn epoch).
    """

    __slots__ = ("_pending", "_dead", "auto_flush_threshold", "churn_epochs")

    def __init__(self, *args, auto_flush_threshold: int = 100_000, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._pending = GraphDelta()
        self._dead = np.zeros(self.num_vertices, dtype=bool)
        self.auto_flush_threshold = int(auto_flush_threshold)
        #: completed flushes that changed anything
        self.churn_epochs = 0

    # ------------------------------------------------------------------
    @classmethod
    def from_digraph(
        cls, graph: DiGraph, auto_flush_threshold: int = 100_000
    ) -> "MutableDiGraph":
        """A mutable deep copy of an (immutable) graph.

        Copies the CSR arrays so mutating never corrupts the source — the
        harness's road networks are cached and shared across scenarios.
        """
        coords = graph.coords.copy() if graph.coords is not None else None
        tags = graph.tags.copy() if graph.tags is not None else None
        out = cls(
            graph.indptr.copy(),
            graph.indices.copy(),
            graph.weights.copy(),
            coords=coords,
            tags=tags,
            name=graph.name,
            auto_flush_threshold=auto_flush_threshold,
        )
        if isinstance(graph, MutableDiGraph):
            out._dead = graph.dead_mask.copy()
            # buffered-but-unflushed mutations are part of the source's
            # logical state; the entries are immutable tuples/specs, so
            # extending a fresh delta with them is a safe deep-enough copy
            out._pending.merge(graph._pending)
        return out

    # ------------------------------------------------------------------
    # mutation buffer
    # ------------------------------------------------------------------
    @property
    def dead_mask(self) -> np.ndarray:
        """Boolean tombstone mask (read-only view; reflects the last flush)."""
        return self._dead

    @property
    def num_live_vertices(self) -> int:
        return int(self.num_vertices - np.count_nonzero(self._dead))

    @property
    def pending_mutations(self) -> int:
        return self._pending.num_mutations

    def _maybe_auto_flush(self) -> None:
        if self._pending.num_mutations >= self.auto_flush_threshold:
            self.flush()

    def insert_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Buffer a directed edge insertion."""
        if weight < 0:
            raise GraphError("negative edge weights are not supported")
        self._pending.insert_edges.append((int(u), int(v), float(weight)))
        self._maybe_auto_flush()

    def delete_edge(self, u: int, v: int) -> None:
        """Buffer the deletion of all parallel ``u -> v`` edges."""
        self._pending.delete_edges.append((int(u), int(v)))
        self._maybe_auto_flush()

    def update_weight(self, u: int, v: int, weight: float) -> None:
        """Buffer a weight change for all parallel ``u -> v`` edges."""
        if weight < 0:
            raise GraphError("negative edge weights are not supported")
        self._pending.update_weights.append((int(u), int(v), float(weight)))
        self._maybe_auto_flush()

    def add_vertex(self, spec: NewVertexSpec) -> None:
        """Buffer a vertex addition (id assigned at the next flush)."""
        self._pending.new_vertices.append(spec)
        self._maybe_auto_flush()

    def remove_vertex(self, v: int) -> None:
        """Buffer a vertex tombstone (drops all incident edges at flush)."""
        self._pending.remove_vertices.append(int(v))
        self._maybe_auto_flush()

    def apply_delta(self, delta: GraphDelta) -> DeltaResult:
        """Buffer ``delta`` and flush immediately (one churn epoch)."""
        self._pending.merge(delta)
        return self.flush()

    # ------------------------------------------------------------------
    # the rebuild
    # ------------------------------------------------------------------
    def flush(self) -> DeltaResult:
        """Apply the pending buffer in one vectorized CSR rebuild.

        Ordering matters only between conflicting mutations on the same
        edge; the application order within one flush is: weight updates,
        deletions, vertex removals, then insertions / vertex additions (a
        delta that deletes and re-inserts the same edge ends up with the
        edge present).
        """
        delta = self._pending
        self._pending = GraphDelta()
        if not delta:
            return DeltaResult()

        # negative weights violate the graph invariant everywhere else
        # (constructor, builder, the buffering mutation methods) — a delta
        # carrying one is a programming error, not a change-feed conflict,
        # so reject it up front before any state is touched
        negative = (
            any(wt < 0 for _u, _v, wt in delta.update_weights)
            or any(wt < 0 for _u, _v, wt in delta.insert_edges)
            or any(
                wt < 0 for spec in delta.new_vertices for _n, wt in spec.edges
            )
        )
        if negative:
            raise GraphError("negative edge weights are not supported")

        old_n = self.num_vertices
        src, dst, w = self.edge_array()
        skipped = 0
        # encoded (u, v) edge keys, ascending: the CSR is in canonical
        # (src, dst) order (csr_arrays_from_edges), so weight updates and
        # deletions binary-search them as they stand.  Only a graph handed
        # to the constructor with unsorted rows, before its first flush,
        # needs sorting — by the rebuild's own stable order, so the result
        # is the same
        keys = edge_keys(src, dst, old_n)
        if (keys[1:] < keys[:-1]).any():
            order = np.argsort(keys, kind="stable")
            src, dst, w, keys = src[order], dst[order], w[order], keys[order]

        # --- weight updates: match encoded (u, v) keys against the edges
        updated = 0
        if delta.update_weights:
            uu, uv, uw = _edge_triples(delta.update_weights)
            valid = _endpoints_alive(uu, uv, old_n, self._dead)
            skipped += int(np.count_nonzero(~valid))
            uu, uv, uw = uu[valid], uv[valid], uw[valid]
            if uu.size:
                want = edge_keys(uu, uv, old_n)
                first = np.searchsorted(keys, want, side="left").tolist()
                last = np.searchsorted(keys, want, side="right").tolist()
                # applied in delta order: the last update to the same (u, v)
                # within one flush wins
                for lo, hi, weight in zip(first, last, uw.tolist()):
                    if lo == hi:
                        skipped += 1
                        continue
                    w[lo:hi] = weight
                    updated += hi - lo

        # --- deletions (edges, then whole vertices)
        keep = np.ones(src.size, dtype=bool)
        deleted = 0
        if delta.delete_edges:
            du = np.asarray([u for u, _v in delta.delete_edges], dtype=np.int64)
            dv = np.asarray([v for _u, v in delta.delete_edges], dtype=np.int64)
            valid = (du >= 0) & (du < old_n) & (dv >= 0) & (dv < old_n)
            skipped += int(np.count_nonzero(~valid))
            du, dv = du[valid], dv[valid]
            if du.size:
                want = sorted_unique(edge_keys(du, dv, old_n))
                hit = in_sorted(keys, want)
                deleted += int(np.count_nonzero(hit & keep))
                # deletions of already-absent edges are tolerated silently
                # (counted per requested pair, not per matched edge)
                present = in_sorted(want, keys)
                skipped += int(np.count_nonzero(~present))
                keep &= ~hit

        newly_dead: Tuple[int, ...] = ()
        if delta.remove_vertices:
            rv = sorted_unique(np.asarray(delta.remove_vertices, dtype=np.int64))
            valid = (rv >= 0) & (rv < old_n) & ~self._dead[rv]
            skipped += int(np.count_nonzero(~valid))
            rv = rv[valid]
            if rv.size:
                dead = self._dead.copy()
                dead[rv] = True
                incident = dead[src] | dead[dst]
                deleted += int(np.count_nonzero(incident & keep))
                keep &= ~incident
                self._dead = dead
                newly_dead = tuple(int(v) for v in rv)

        if not keep.all():
            src, dst, w = src[keep], dst[keep], w[keep]

        # --- vertex additions: assign ids, extend coords/tags/dead mask
        first_new: Optional[int] = None
        added = 0
        pending_edges: List[Tuple[int, int, float]] = list(delta.insert_edges)
        if delta.new_vertices:
            first_new = old_n
            added = len(delta.new_vertices)
            has_coords = self._coords is not None
            new_coords = np.zeros((added, 2), dtype=np.float64)
            new_tags = np.zeros(added, dtype=bool)
            for i, spec in enumerate(delta.new_vertices):
                vid = old_n + i
                if has_coords:
                    new_coords[i, 0] = spec.x if spec.x is not None else 0.0
                    new_coords[i, 1] = spec.y if spec.y is not None else 0.0
                new_tags[i] = spec.tag
                for neighbor, weight in spec.edges:
                    pending_edges.append((vid, int(neighbor), float(weight)))
                    if spec.bidirectional:
                        pending_edges.append((int(neighbor), vid, float(weight)))
            if has_coords:
                self._coords = np.vstack([self._coords, new_coords])
            if self._tags is not None:
                self._tags = np.concatenate([self._tags, new_tags])
            elif new_tags.any():
                tags = np.zeros(old_n + added, dtype=bool)
                tags[old_n:] = new_tags
                self._tags = tags
            self._dead = np.concatenate([self._dead, np.zeros(added, dtype=bool)])

        n = old_n + added

        # --- insertions (tolerant of dead / out-of-range endpoints)
        inserted = 0
        if pending_edges:
            iu, iv, iw = _edge_triples(pending_edges)
            valid = _endpoints_alive(iu, iv, n, self._dead)
            skipped += int(np.count_nonzero(~valid))
            iu, iv, iw = iu[valid], iv[valid], iw[valid]
            inserted = int(iu.size)
            if inserted:
                src = np.concatenate([src, iu])
                dst = np.concatenate([dst, iv])
                w = np.concatenate([w, iw])

        # --- CSR rebuild through the shared canonical construction, so the
        # result is array-for-array identical to fresh construction
        self._indptr, self._indices, self._weights = csr_arrays_from_edges(
            src, dst, w, n
        )
        self._invalidate_csr()

        result = DeltaResult(
            first_new_vertex=first_new,
            added_vertices=added,
            removed_vertices=newly_dead,
            inserted_edges=inserted,
            deleted_edges=deleted,
            updated_weights=updated,
            skipped=skipped,
        )
        if result:
            self.churn_epochs += 1
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MutableDiGraph(name={self.name!r}, n={self.num_vertices}, "
            f"m={self.num_edges}, dead={int(np.count_nonzero(self._dead))}, "
            f"pending={self.pending_mutations})"
        )


def _edge_triples(
    triples: List[Tuple[int, int, float]]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    u = np.asarray([t[0] for t in triples], dtype=np.int64)
    v = np.asarray([t[1] for t in triples], dtype=np.int64)
    w = np.asarray([t[2] for t in triples], dtype=np.float64)
    return u, v, w


def _endpoints_alive(
    u: np.ndarray, v: np.ndarray, n: int, dead: np.ndarray
) -> np.ndarray:
    """Mask of edges whose endpoints are in range and not tombstoned."""
    valid = (u >= 0) & (u < n) & (v >= 0) & (v < n)
    alive = valid.copy()
    if dead.size:
        inb = valid
        alive[inb] &= ~(dead[u[inb]] | dead[v[inb]])
    return alive


def fresh_rebuild(graph: DiGraph) -> DiGraph:
    """An immutable :class:`DiGraph` built fresh from ``graph``'s edge list.

    Uses the same array pipeline as :class:`~repro.graph.builder.GraphBuilder`
    (stable sort by ``(src, dst)``); the churn-equivalence tests assert a
    flushed :class:`MutableDiGraph` matches this array-for-array.
    """
    src, dst, w = graph.edge_array()
    n = graph.num_vertices
    indptr, dst, w = csr_arrays_from_edges(src, dst, w, n)
    coords = graph.coords.copy() if graph.coords is not None else None
    tags = graph.tags.copy() if graph.tags is not None else None
    return DiGraph(indptr, dst, w, coords=coords, tags=tags, name=graph.name)
