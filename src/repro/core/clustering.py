"""Query clustering for the Q-cut preprocessing step (Appendix A.1).

*"As the number of these combinations can be very high, we clustered the
queries as a preprocessing step into 4k clusters using a variant of the
well-known Karger's algorithm with linear runtime complexity [16] and moved
whole clusters between workers."*

Karger's algorithm contracts randomly chosen edges of a multigraph.  Our
variant runs on the *query overlap graph* (vertices = queries, edge weight =
global scope intersection size) and contracts edges in a random
weight-biased order until at most ``4k`` clusters remain — overlapping
queries end up in the same cluster, so moving a cluster never tears shared
vertices apart.  Queries without overlap stay singletons; if there are more
non-overlapping groups than ``4k``, the smallest groups are merged last
(they are cheap to move anyway).
"""

from __future__ import annotations

import heapq
from typing import Dict, Sequence, Tuple

import numpy as np

__all__ = ["UnionFind", "cluster_queries"]


class UnionFind:
    """Disjoint-set forest with path compression and union by size."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.size = [1] * n
        self.count = n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.count -= 1
        return True


def cluster_queries(
    query_ids: Sequence[int],
    overlaps: Dict[Tuple[int, int], int],
    max_clusters: int,
    seed: int = 0,
) -> Dict[int, int]:
    """Contract the overlap graph down to at most ``max_clusters`` clusters.

    Parameters
    ----------
    query_ids:
        The queries to cluster.
    overlaps:
        ``(qi, qj) -> |GS(qi) ∩ GS(qj)|`` with ``qi < qj`` (only positive
        entries need to be present).
    max_clusters:
        Target cluster count — the paper uses ``4k`` for ``k`` workers.
    seed:
        RNG seed for the contraction order.

    Returns
    -------
    dict
        ``query_id -> cluster index`` with cluster indices in
        ``[0, num_clusters)``.
    """
    ids = list(query_ids)
    n = len(ids)
    if n == 0:
        return {}
    index = {qid: i for i, qid in enumerate(ids)}
    uf = UnionFind(n)
    rng = np.random.default_rng(seed)

    if overlaps and uf.count > max_clusters:
        # sorted so the contraction order depends only on the overlap
        # *contents*, not on dict insertion order — two intersection counts
        # with equal contents then cluster identically
        pairs = sorted(
            (index[a], index[b], w)
            for (a, b), w in overlaps.items()
            if a in index and b in index and w > 0
        )
        if pairs:
            weights = np.array([w for (_, _, w) in pairs], dtype=np.float64)
            # Karger: pick edges with probability proportional to weight.
            # Sampling a full random order biased by weight = weighted shuffle
            # via exponential race (linear-time, deterministic given seed).
            keys = rng.exponential(1.0, size=len(pairs)) / weights
            order = np.argsort(keys)
            for idx in order:
                if uf.count <= max_clusters:
                    break
                a, b, _w = pairs[idx]
                uf.union(a, b)

    # Merge overlapping groups first; if still too many clusters (many
    # disjoint queries), merge smallest-first to respect the hard cap.  A
    # size-keyed heap with lazy invalidation keeps the disjoint-singleton
    # case O(n log n); entries are stale once their root was absorbed or
    # grew, and are simply discarded on pop.
    if uf.count > max_clusters:
        heap = [(uf.size[r], r) for r in {uf.find(i) for i in range(n)}]
        heapq.heapify(heap)

        def pop_root() -> int:
            while True:
                size, root = heapq.heappop(heap)
                if uf.find(root) == root and uf.size[root] == size:
                    return root

        while uf.count > max_clusters:
            a = pop_root()
            b = pop_root()
            uf.union(a, b)
            merged = uf.find(a)
            heapq.heappush(heap, (uf.size[merged], merged))

    # densify cluster labels
    label: Dict[int, int] = {}
    out: Dict[int, int] = {}
    for qid in ids:
        root = uf.find(index[qid])
        if root not in label:
            label[root] = len(label)
        out[qid] = label[root]
    return out
