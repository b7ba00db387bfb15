"""Query scope bookkeeping (§2 definitions).

* **Global query scope** ``GS(q)`` — all vertices activated by query ``q``
  within the monitoring window of μ seconds.
* **Local query scope** ``LS(q, w)`` — the subset of ``GS(q)`` assigned to
  worker ``w`` under the current assignment ``A``.
* **Intersection function** ``I_w`` — the number of vertices shared between
  local query scopes on a worker; the controller aggregates these into
  global intersections, which drive the query clustering of the Q-cut
  preprocessing step.

The store is :class:`ScopeStore`.  Each ``GS(q)`` is a sorted ``int64``
numpy array; a lazily rebuilt CSR-style *query × vertex incidence* structure
(row pointer + concatenated vertex column) lets every scope statistic —
per-worker local-scope sizes, the query-cut metric, the per-worker scope
mass — be computed for **all queries at once** with a single encoded
``bincount`` pass, and lets global pairwise intersections be counted by
sorting the incidence pairs and bincounting co-occurring query pairs.
Ingestion is incremental: new activations are buffered per query and merged
into the sorted arrays on demand.

The controller stores each ``GS(q)`` once and *derives* the local scopes
from the assignment array — a single source of truth that stays consistent
through repartitioning.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.util import concat_ranges, in_sorted, sorted_unique

__all__ = ["ScopeStore", "scope_worker_counts"]

_EMPTY = np.empty(0, dtype=np.int64)


def scope_worker_counts(
    scope: "Set[int] | np.ndarray | Sequence[int]", assignment: np.ndarray, k: int
) -> np.ndarray:
    """Per-worker vertex counts ``|LS(q, w)|`` of one scope.

    The single shared bincount path (``minlength=k`` then a ``[:k]`` slice,
    so out-of-range worker ids can neither truncate nor blow up the result).
    Accepts a vertex set, sequence, or int64 array.
    """
    if isinstance(scope, np.ndarray):
        vertices = scope
    elif scope:
        vertices = np.fromiter(scope, dtype=np.int64, count=len(scope))
    else:
        vertices = _EMPTY
    if vertices.size == 0:
        return np.zeros(k, dtype=np.int64)
    counts = np.bincount(assignment[vertices], minlength=k)
    return counts[:k]


class ScopeStore:
    """Array-backed scope store with a CSR query × vertex incidence view.

    Per query the store keeps a sorted, duplicate-free ``int64`` vertex
    array.  New activations are appended to a per-query pending buffer and
    merged (sort + unique) only when the query's array — or the flat
    incidence view — is next needed, so repeated small activation batches
    cost amortised ``O(total)``.

    The flat view is the classic CSR triple over the *sorted* query ids:
    ``row_qids[i]`` is the query of row ``i``, ``indptr`` delimits rows, and
    ``vertices`` is the concatenation of all scope arrays.  Every aggregate
    below is one vectorized pass over that structure.
    """

    def __init__(self) -> None:
        self._arrays: Dict[int, np.ndarray] = {}
        self._pending: Dict[int, List[np.ndarray]] = {}
        self._flat: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def add_activations(self, query_id: int, vertices: Iterable[int]) -> None:
        """Record vertices activated by a query (workers' stats messages)."""
        query_id = int(query_id)
        if isinstance(vertices, np.ndarray):
            # always copy: the chunk is buffered until the next read, so an
            # alias of a caller-reused buffer would corrupt the scope
            chunk = vertices.astype(np.int64, copy=True)
        else:
            chunk = np.asarray(list(vertices), dtype=np.int64)
        self._arrays.setdefault(query_id, _EMPTY)
        if chunk.size:
            self._pending.setdefault(query_id, []).append(chunk)
            self._flat = None

    def drop(self, query_id: int) -> None:
        """Forget a query (window eviction)."""
        had = self._arrays.pop(query_id, None) is not None
        had |= self._pending.pop(query_id, None) is not None
        if had:
            self._flat = None

    def remove_vertices(self, vertices: "Iterable[int] | np.ndarray") -> None:
        """Strip tombstoned vertex ids from every tracked scope (graph churn).

        Filters both the consolidated sorted arrays and the per-query
        pending activation buffers, so a dead id can survive in neither
        representation; the flat incidence view is invalidated when
        anything changed.
        """
        if isinstance(vertices, np.ndarray):
            dead = sorted_unique(vertices.astype(np.int64, copy=False))
        else:
            dead = sorted_unique(np.asarray(list(vertices), dtype=np.int64))
        if dead.size == 0:
            return
        changed = False
        for qid, arr in self._arrays.items():
            if arr.size == 0:
                continue
            hit = in_sorted(arr, dead)
            if hit.any():
                self._arrays[qid] = arr[~hit]
                changed = True
        for qid, chunks in self._pending.items():
            fresh_chunks = []
            for chunk in chunks:
                keep = ~in_sorted(chunk, dead)
                if not keep.all():
                    chunk = chunk[keep]
                    changed = True
                if chunk.size:
                    fresh_chunks.append(chunk)
            self._pending[qid] = fresh_chunks
        if changed:
            self._flat = None

    # ------------------------------------------------------------------
    # per-query access
    # ------------------------------------------------------------------
    def _consolidate(self, query_id: int) -> np.ndarray:
        chunks = self._pending.pop(query_id, None)
        base = self._arrays.get(query_id, _EMPTY)
        if chunks:
            base = sorted_unique(np.concatenate([base] + chunks))
            self._arrays[query_id] = base
        return base

    def queries(self) -> List[int]:
        """Ids of all tracked queries."""
        return sorted(self._arrays)

    def scope_array(self, query_id: int) -> np.ndarray:
        """``GS(q)`` as a sorted int64 array — empty when unknown."""
        if query_id not in self._arrays:
            return _EMPTY
        return self._consolidate(query_id)

    def global_scope_size(self, query_id: int) -> int:
        """``|GS(q)|``."""
        return int(self.scope_array(query_id).size)

    # ------------------------------------------------------------------
    # flat incidence view
    # ------------------------------------------------------------------
    def _flat_view(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(row_qids, indptr, vertices)`` CSR triple over sorted query ids."""
        if self._flat is None:
            qids = sorted(self._arrays)
            arrays = [self._consolidate(q) for q in qids]
            sizes = np.array([a.size for a in arrays], dtype=np.int64)
            indptr = np.zeros(len(qids) + 1, dtype=np.int64)
            np.cumsum(sizes, out=indptr[1:])
            vertices = np.concatenate(arrays) if arrays else np.empty(0, np.int64)
            # handed out as is by incidence(): read-only, so no caller can
            # corrupt the cached view
            vertices.flags.writeable = False
            self._flat = (np.asarray(qids, dtype=np.int64), indptr, vertices)
        return self._flat

    def _rows_for(self, query_ids: Optional[Sequence[int]]) -> Tuple[np.ndarray, np.ndarray]:
        """Row indices (into the flat view) for ``query_ids`` plus their ids."""
        qids, _indptr, _vertices = self._flat_view()
        if query_ids is None:
            return np.arange(qids.size, dtype=np.int64), qids
        wanted = np.asarray(list(query_ids), dtype=np.int64)
        rows = np.searchsorted(qids, wanted)
        ok = (rows < qids.size) & (qids[np.minimum(rows, qids.size - 1)] == wanted) \
            if qids.size else np.zeros(wanted.size, dtype=bool)
        return rows[ok], wanted[ok]

    # ------------------------------------------------------------------
    # vectorized aggregates (all queries in one pass)
    # ------------------------------------------------------------------
    def incidence(
        self, query_ids: Optional[Sequence[int]] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(vertices, counts, qids)`` — the concatenated scope arrays.

        ``vertices`` holds the selected queries' scope arrays back to back,
        ``counts[i]`` is the scope size of ``qids[i]``.  Selected ids
        preserve the order given in ``query_ids`` (unknown ids dropped);
        the default is all tracked queries in sorted-id order.  This is the
        single gather every aggregate below (and the controller's snapshot
        builder) shares.

        A selection of every non-empty row in order — the default, and the
        snapshot's tracked queries — returns the cached flat column itself,
        read-only, instead of a gathered copy.
        """
        rows, out_qids = self._rows_for(query_ids)
        _qids, indptr, vertices = self._flat_view()
        counts = indptr[rows + 1] - indptr[rows]
        if int(counts.sum()) == vertices.size and bool(np.all(rows[1:] > rows[:-1])):
            return vertices, counts, out_qids
        verts = vertices[concat_ranges(indptr[rows], counts)]
        return verts, counts, out_qids

    def local_size_matrix(
        self,
        assignment: np.ndarray,
        k: int,
        query_ids: Optional[Sequence[int]] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(sizes, qids)`` — the dense query × worker local-scope matrix.

        ``sizes[i, w] == |LS(qids[i], w)|`` for every tracked (or selected)
        query, computed with one encoded ``bincount`` over the incidence
        structure instead of per-query loops.
        """
        verts, counts, out_qids = self.incidence(query_ids)
        sizes = np.zeros((counts.size, k), dtype=np.int64)
        if verts.size == 0:
            return sizes, out_qids
        # the encoded cells row * k + owner, built in place: one
        # incidence-sized array plus the owners being added
        cells = np.repeat(np.arange(counts.size, dtype=np.int64) * k, counts)
        owners = assignment[verts]
        valid = (owners >= 0) & (owners < k)
        cells += owners
        del owners
        if not valid.all():
            cells = cells[valid]
        sizes[:, :] = np.bincount(cells, minlength=counts.size * k).reshape(counts.size, k)
        return sizes, out_qids

    def scope_mass(
        self,
        assignment: np.ndarray,
        k: int,
        query_ids: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Per-worker ``sum_q |LS(q, w)|`` — one bincount over the incidence."""
        verts, _counts, _qids = self.incidence(query_ids)
        if verts.size == 0:
            return np.zeros(k, dtype=np.int64)
        owners = assignment[verts]
        return np.bincount(owners[(owners >= 0) & (owners < k)], minlength=k)[:k]

    # ------------------------------------------------------------------
    # pairwise intersections
    # ------------------------------------------------------------------
    def pairwise_intersections(
        self,
        min_overlap: int = 1,
        query_ids: Optional[Sequence[int]] = None,
    ) -> Dict[Tuple[int, int], int]:
        """Global ``|GS(qi) ∩ GS(qj)|`` for all pairs, fully vectorized.

        Sorts the concatenated (vertex, query) incidence pairs, expands each
        vertex's co-occurring query group into its ``g*(g-1)/2`` ordered
        pairs with range arithmetic, and counts pair keys with
        ``unique``/``bincount`` — no Python dict of lists.
        """
        verts, counts, out_qids = self.incidence(query_ids)
        if verts.size == 0:
            return {}
        return _count_pair_overlaps(
            verts,
            np.repeat(np.arange(counts.size, dtype=np.int32), counts),
            out_qids,
            min_overlap,
        )


def _count_pair_overlaps(
    verts: np.ndarray,
    row_idx: np.ndarray,
    row_qids: np.ndarray,
    min_overlap: int,
    max_pairs_per_chunk: int = 65_536,
) -> Dict[Tuple[int, int], int]:
    """Count co-occurring query pairs from (vertex, query-row) incidences.

    ``verts``/``row_idx`` must contain each (vertex, row) pair at most once.
    Pair expansion is streamed in bounded chunks, so dense overlap cannot
    blow up peak memory and the chunk temporaries stay allocator-warm;
    per-chunk key counts are merged at the end.  Each incidence-sized
    array is dropped once read: the sort's transients aside, the expansion
    holds 16 B per incidence (int32 rows and fan-outs, int64 running pair
    count) plus one chunk.
    """
    num_rows = int(row_qids.size)
    if num_rows < 2 or verts.size == 0:
        return {}
    order = np.lexsort((row_idx, verts))
    # int32 rows halve the bandwidth of the pair expansion; the incidence
    # table is far below 2^31 entries by construction
    r = row_idx.astype(np.int32, copy=False)[order]
    del row_idx
    v = verts[order]
    del order
    # an entry's pair fan-out is the number of its successors inside its
    # vertex group: group end - 1 - position
    last = np.empty(v.size, dtype=bool)
    last[-1] = True
    np.not_equal(v[1:], v[:-1], out=last[:-1])
    del v
    ends = np.flatnonzero(last) + 1
    del last
    fanout = np.repeat(ends.astype(np.int32), np.diff(ends, prepend=0))
    del ends
    fanout -= np.arange(1, fanout.size + 1, dtype=np.int32)

    # accumulate encoded-pair counts chunk by chunk.  With Q rows the key
    # space is Q^2; for the controller's windowed query counts (<= a couple
    # thousand, 4M keys = 32 MB) a dense bincount accumulator is both the
    # fastest and the simplest merge — beyond that, sort-based merging
    # keeps memory proportional to the distinct pairs instead.
    dense = num_rows * num_rows <= 4_000_000
    key_dtype = np.int32 if dense else np.int64
    acc = np.zeros(num_rows * num_rows, dtype=np.int64) if dense else None
    keys_parts: List[np.ndarray] = []
    counts_parts: List[np.ndarray] = []
    cum = np.cumsum(fanout, dtype=np.int64)
    total_pairs = int(cum[-1])
    start = 0
    emitted = 0
    while emitted < total_pairs:
        stop = int(np.searchsorted(cum, emitted + max_pairs_per_chunk, side="right"))
        stop = max(stop, start + 1)
        rep = fanout[start:stop]
        n_pairs = int(rep.sum())
        if n_pairs:
            # rows are sorted within a vertex group, so the repeated entry's
            # row is always < its successors' rows.  right[j] enumerates the
            # successor positions: for pair j in the chunk it equals
            # (entry position + 1 + offset-within-the-entry's-fan-out).
            idx = np.arange(start, stop, dtype=np.int32)
            base = np.repeat(idx + 1 - (np.cumsum(rep) - rep), rep)
            base += np.arange(n_pairs, dtype=np.int32)
            keys = np.repeat(r[start:stop].astype(key_dtype), rep)
            keys *= num_rows
            keys += r[base]
            if dense:
                acc += np.bincount(keys, minlength=acc.size)
            else:
                uniq, cnt = np.unique(keys, return_counts=True)
                keys_parts.append(uniq)
                counts_parts.append(cnt)
        emitted += n_pairs
        start = stop
    if dense:
        if acc is None:
            return {}
        uniq = np.flatnonzero(acc >= min_overlap)
        totals = acc[uniq]
    else:
        if not keys_parts:
            return {}
        all_keys = np.concatenate(keys_parts)
        all_counts = np.concatenate(counts_parts)
        uniq, inverse = np.unique(all_keys, return_inverse=True)
        totals = np.bincount(inverse, weights=all_counts).astype(np.int64)
        keep = totals >= min_overlap
        uniq = uniq[keep]
        totals = totals[keep]
    ia = (uniq // num_rows).astype(np.int64)
    ib = (uniq % num_rows).astype(np.int64)
    # positions orient pairs by row order, which need not follow query-id
    # order when the caller selected an unsorted query subset — normalize
    # to the (qi < qj) key convention
    qa = row_qids[ia]
    qb = row_qids[ib]
    lo = np.minimum(qa, qb)
    hi = np.maximum(qa, qb)
    return {
        (int(a), int(b)): int(c) for a, b, c in zip(lo, hi, totals)
    }
