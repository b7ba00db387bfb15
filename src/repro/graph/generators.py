"""Synthetic graph generators.

Everything here is implemented from scratch on top of
:class:`~repro.graph.builder.GraphBuilder` with seeded ``numpy`` RNG streams so
that every experiment is reproducible bit-for-bit.

The generators cover the three application domains from the paper's
introduction:

* road networks (Application 1) live in :mod:`repro.graph.road_network`;
* social networks with high clustering coefficient (Application 2) —
  :func:`watts_strogatz`;
* knowledge graphs with popularity hubs (Application 3) —
  :func:`barabasi_albert`.

Additionally :func:`new_york_districts` reconstructs the 10-vertex district
neighbourhood multigraph of the paper's Figure 1, with highway multiplicities
chosen such that the three cuts discussed in §2 have exactly the edge-cut
sizes 6, 8 and 2 reported in the figure.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graph.builder import GraphBuilder
from repro.graph.digraph import DiGraph

__all__ = [
    "new_york_districts",
    "NY_DISTRICT_NAMES",
    "NY_CUTS",
    "NY_QUERY_SCOPES",
    "grid_graph",
    "watts_strogatz",
    "barabasi_albert",
    "rmat_graph",
]


#: District index -> name, matching the legend of Figure 1 (0-based ids).
NY_DISTRICT_NAMES: Dict[int, str] = {
    0: "Western NY",
    1: "Finger Lakes",
    2: "Southern Tier",
    3: "Central NY",
    4: "North Country",
    5: "Mohawk Valley",
    6: "Capital District",
    7: "Hudson Valley",
    8: "NYC",
    9: "Long Island",
}

#: The three cuts of Figure 1, given as the vertex set of one side.
NY_CUTS: Dict[str, frozenset] = {
    # cut 1 separates the western districts; edge-cut 6, no query split
    "cut1": frozenset({0, 1, 2}),
    # cut 2 separates west+north from east; edge-cut 8, no query split
    "cut2": frozenset({0, 1, 2, 3, 4}),
    # cut 3 separates NYC + Long Island; edge-cut 2 but splits query q2
    "cut3": frozenset({8, 9}),
}

#: The two localized queries drawn in Figure 1 (their global scopes).
NY_QUERY_SCOPES: Dict[str, frozenset] = {
    "q1": frozenset({0, 1, 2}),  # upstate query
    "q2": frozenset({7, 8, 9}),  # Hudson Valley / NYC / Long Island query
}

# (u, v, multiplicity): number of parallel highway connections between
# adjacent districts.  Multiplicities are calibrated so that the cuts above
# have edge-cut sizes 6 / 8 / 2 exactly as printed in Figure 1.
_NY_ADJACENCY: List[Tuple[int, int, int]] = [
    (0, 1, 2),  # Western NY - Finger Lakes
    (0, 2, 1),  # Western NY - Southern Tier
    (1, 2, 1),  # Finger Lakes - Southern Tier
    (1, 3, 2),  # Finger Lakes - Central NY        (crosses cut 1)
    (2, 3, 2),  # Southern Tier - Central NY       (crosses cut 1)
    (2, 5, 2),  # Southern Tier - Mohawk Valley    (crosses cuts 1 and 2)
    (3, 4, 2),  # Central NY - North Country
    (3, 5, 3),  # Central NY - Mohawk Valley       (crosses cut 2)
    (4, 5, 2),  # North Country - Mohawk Valley    (crosses cut 2)
    (3, 6, 1),  # Central NY - Capital District    (crosses cut 2)
    (5, 6, 2),  # Mohawk Valley - Capital District
    (6, 7, 2),  # Capital District - Hudson Valley
    (7, 8, 1),  # Hudson Valley - NYC              (crosses cut 3)
    (7, 9, 1),  # Hudson Valley - Long Island      (crosses cut 3)
    (8, 9, 1),  # NYC - Long Island
]

# Rough planar positions for plotting / Domain partitioning demos.
_NY_COORDS: List[Tuple[float, float]] = [
    (0.5, 2.6),  # Western NY
    (1.6, 2.7),  # Finger Lakes
    (1.6, 1.7),  # Southern Tier
    (2.7, 2.8),  # Central NY
    (3.4, 4.0),  # North Country
    (3.6, 2.8),  # Mohawk Valley
    (4.6, 2.8),  # Capital District
    (4.6, 1.6),  # Hudson Valley
    (4.4, 0.6),  # NYC
    (5.4, 0.5),  # Long Island
]


def new_york_districts() -> DiGraph:
    """The Figure 1 district neighbourhood graph of New York state.

    Edges are bidirectional with unit weight; parallel edges model multiple
    highway connections between adjacent districts so that the edge-cut sizes
    of the figure's three cuts are reproduced exactly
    (``cut1 -> 6``, ``cut2 -> 8``, ``cut3 -> 2`` crossing connections,
    counting each undirected connection once).
    """
    builder = GraphBuilder(10)
    for u, v, multiplicity in _NY_ADJACENCY:
        for _ in range(multiplicity):
            builder.add_bidirectional_edge(u, v, 1.0)
    for v, (x, y) in enumerate(_NY_COORDS):
        builder.set_coord(v, x, y)
    return builder.build(name="new-york-districts")


def grid_graph(rows: int, cols: int, weight: float = 1.0) -> DiGraph:
    """A ``rows x cols`` 4-neighbour grid with bidirectional unit edges."""
    if rows <= 0 or cols <= 0:
        raise GraphError("grid dimensions must be positive")
    builder = GraphBuilder(rows * cols)
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            builder.set_coord(v, float(c), float(r))
            if c + 1 < cols:
                builder.add_bidirectional_edge(v, v + 1, weight)
            if r + 1 < rows:
                builder.add_bidirectional_edge(v, v + cols, weight)
    return builder.build(name=f"grid-{rows}x{cols}")


def watts_strogatz(
    n: int, k: int, beta: float, seed: int = 0, weight: float = 1.0
) -> DiGraph:
    """Watts–Strogatz small-world graph [40 in the paper].

    High clustering coefficient with short average path length — the paper
    cites exactly this model to justify overlapping social circles
    (Application 2).  ``k`` must be even; each vertex connects to its ``k``
    ring neighbours and each edge is rewired with probability ``beta``.
    """
    if k % 2 != 0 or k <= 0:
        raise GraphError("k must be positive and even")
    if not 0.0 <= beta <= 1.0:
        raise GraphError("beta must be in [0, 1]")
    if k >= n:
        raise GraphError("k must be smaller than n")
    rng = np.random.default_rng(seed)
    edges = set()
    for v in range(n):
        for j in range(1, k // 2 + 1):
            u = (v + j) % n
            edges.add((min(v, u), max(v, u)))
    rewired = set()
    for (u, v) in sorted(edges):
        if rng.random() < beta:
            w = int(rng.integers(0, n))
            attempts = 0
            while (w == u or (min(u, w), max(u, w)) in edges
                   or (min(u, w), max(u, w)) in rewired) and attempts < 32:
                w = int(rng.integers(0, n))
                attempts += 1
            if attempts < 32:
                rewired.add((min(u, w), max(u, w)))
                continue
        rewired.add((u, v))
    builder = GraphBuilder(n)
    angles = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    for v in range(n):
        builder.set_coord(v, float(np.cos(angles[v])), float(np.sin(angles[v])))
    for (u, v) in sorted(rewired):
        builder.add_bidirectional_edge(u, v, weight)
    return builder.build(name=f"ws-{n}-{k}-{beta}")


def barabasi_albert(n: int, m: int, seed: int = 0, weight: float = 1.0) -> DiGraph:
    """Barabási–Albert preferential attachment graph.

    Produces the skewed degree distribution with hub vertices that the paper
    associates with knowledge-graph popularity hotspots (Application 3) and
    the future-work web-graph scenario (§6).
    """
    if m < 1 or m >= n:
        raise GraphError("need 1 <= m < n")
    rng = np.random.default_rng(seed)
    targets_pool: List[int] = list(range(m))  # seed clique endpoints
    edges: List[Tuple[int, int]] = []
    repeated: List[int] = list(range(m))
    for v in range(m, n):
        chosen = set()
        while len(chosen) < m:
            pick = repeated[int(rng.integers(0, len(repeated)))]
            if pick != v:
                chosen.add(pick)
        for u in chosen:
            edges.append((v, u))
            repeated.append(u)
            repeated.append(v)
    builder = GraphBuilder(n)
    for (u, v) in edges:
        builder.add_bidirectional_edge(u, v, weight)
    del targets_pool
    return builder.build(name=f"ba-{n}-{m}")


def rmat_graph(
    n: int,
    edge_factor: int = 8,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
    weight_range: Tuple[float, float] = (1.0, 2.0),
) -> DiGraph:
    """Recursive-matrix (R-MAT, Graph500-style) power-law random graph.

    Samples ``n * edge_factor`` directed edges by recursively descending the
    adjacency matrix with quadrant probabilities ``(a, b, c, 1-a-b-c)``;
    endpoint bits beyond ``log2(n)`` are folded back with a modulo, so the
    graph has exactly ``n`` vertices for any ``n``.  Self-loops are dropped.
    Edge weights are uniform in ``weight_range`` (set both ends equal for an
    unweighted graph).  This is the scale-free workhorse for the kernel
    benchmarks — it stresses the frontier-vectorized iteration path with the
    skewed degree distribution of web/social graphs.
    """
    if n < 2:
        raise GraphError("rmat_graph needs n >= 2")
    if edge_factor < 1:
        raise GraphError("edge_factor must be >= 1")
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0.0:
        raise GraphError("quadrant probabilities must be non-negative")
    rng = np.random.default_rng(seed)
    scale = int(np.ceil(np.log2(n)))
    m = int(n) * int(edge_factor)
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    for _level in range(scale):
        u = rng.random(m)
        src_bit = u >= a + b
        dst_bit = ((u >= a) & (u < a + b)) | (u >= a + b + c)
        src = (src << 1) | src_bit
        dst = (dst << 1) | dst_bit
    src %= n
    dst %= n
    keep = src != dst
    src, dst = src[keep], dst[keep]
    lo, hi = weight_range
    weights = (
        np.full(src.size, float(lo))
        if lo == hi
        else rng.uniform(float(lo), float(hi), src.size)
    )
    order = np.lexsort((dst, src))
    src, dst, weights = src[order], dst[order], weights[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(np.bincount(src, minlength=n))
    return DiGraph(indptr, dst, weights, name=f"rmat-{n}-{edge_factor}")
