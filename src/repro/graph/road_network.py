"""Synthetic hierarchical road networks.

The paper evaluates on OpenStreetMap extracts of Baden-Wuerttemberg (BW,
1.8M vertices) and Germany (GY, 11.8M vertices) with edge weights equal to
segment length divided by speed limit (§4.1).  Those extracts are not
available offline, so this module generates *structurally equivalent*
networks at a configurable scale:

* a set of cities with Zipf-distributed populations placed in the plane
  (these become the query hotspots of §4.1);
* a dense urban street grid per city whose size is proportional to the
  city's population (urban streets, low speed limit);
* inter-city highways along a Delaunay triangulation of the city centres
  (sparse, high speed limit), discretised into highway segments — the
  triangulation is computed in numpy, so the generator needs nothing else;
  and
* point-of-interest tags assigned with a fixed per-vertex probability,
  mirroring the paper's gas-station tagging for the POI query.

The properties that the Q-cut evaluation depends on — near-planarity,
population-skewed hotspots, low-speed local streets vs. fast long-distance
corridors, and localized shortest-path scopes — are all preserved.  Edge
weights are travel times in minutes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graph.builder import GraphBuilder
from repro.graph.digraph import DiGraph

__all__ = [
    "City",
    "RoadNetwork",
    "generate_road_network",
    "baden_wuerttemberg_like",
    "germany_like",
]


@dataclass(frozen=True)
class City:
    """A query hotspot: an urban area with population-proportional size."""

    city_id: int
    center: Tuple[float, float]
    population: int
    vertex_ids: np.ndarray = field(repr=False)

    @property
    def num_vertices(self) -> int:
        return int(self.vertex_ids.size)


@dataclass
class RoadNetwork:
    """A generated road network plus the metadata the rest of the system needs.

    Attributes
    ----------
    graph:
        The CSR road graph with coordinates and POI tags.
    cities:
        City list ordered by descending population (rank order).
    city_of_vertex:
        Per-vertex city id, ``-1`` for highway vertices outside any city.
    """

    graph: DiGraph
    cities: List[City]
    city_of_vertex: np.ndarray

    @property
    def num_cities(self) -> int:
        return len(self.cities)

    def city_vertices(self, city_id: int) -> np.ndarray:
        """Vertex ids belonging to a city."""
        if not 0 <= city_id < len(self.cities):
            raise GraphError(f"unknown city {city_id}")
        return self.cities[city_id].vertex_ids

    def population_weights(self) -> np.ndarray:
        """Normalised population shares (used for hotspot query sampling)."""
        pops = np.array([c.population for c in self.cities], dtype=np.float64)
        return pops / pops.sum()


def _zipf_populations(
    num_cities: int, total_population: int, exponent: float, rng: np.random.Generator
) -> np.ndarray:
    """Rank-based Zipf populations with small multiplicative noise."""
    ranks = np.arange(1, num_cities + 1, dtype=np.float64)
    shares = ranks ** (-exponent)
    noise = rng.uniform(0.85, 1.15, size=num_cities)
    shares = shares * noise
    shares /= shares.sum()
    pops = np.maximum((shares * total_population).astype(np.int64), 1000)
    return -np.sort(-pops)  # descending


def _place_city_centers(
    num_cities: int, region_size: float, rng: np.random.Generator
) -> np.ndarray:
    """Poisson-disk-ish rejection sampling of city centres."""
    min_sep = region_size / (2.2 * np.sqrt(num_cities))
    centers: List[Tuple[float, float]] = []
    attempts = 0
    margin = 0.08 * region_size
    while len(centers) < num_cities and attempts < 50000:
        attempts += 1
        x = rng.uniform(margin, region_size - margin)
        y = rng.uniform(margin, region_size - margin)
        ok = all((x - cx) ** 2 + (y - cy) ** 2 >= min_sep**2 for cx, cy in centers)
        if ok:
            centers.append((x, y))
    if len(centers) < num_cities:
        # fall back to jittered grid placement for the remainder
        side = int(np.ceil(np.sqrt(num_cities)))
        pitch = region_size / (side + 1)
        for gx in range(side):
            for gy in range(side):
                if len(centers) >= num_cities:
                    break
                centers.append(
                    (
                        pitch * (gx + 1) + rng.uniform(-0.2, 0.2) * pitch,
                        pitch * (gy + 1) + rng.uniform(-0.2, 0.2) * pitch,
                    )
                )
    return np.asarray(centers[:num_cities], dtype=np.float64)


def _urban_grid_offsets(count: int) -> np.ndarray:
    """The ``count`` integer grid offsets closest to the origin (a disk)."""
    radius = int(np.ceil(np.sqrt(count / np.pi))) + 2
    xs, ys = np.meshgrid(
        np.arange(-radius, radius + 1), np.arange(-radius, radius + 1)
    )
    offs = np.stack([xs.ravel(), ys.ravel()], axis=1)
    dist = np.hypot(offs[:, 0], offs[:, 1])
    order = np.lexsort((offs[:, 1], offs[:, 0], dist))
    return offs[order[:count]]


def _urban_streets(
    ids: np.ndarray,
    offsets: np.ndarray,
    rng: np.random.Generator,
    urban_spacing: float,
    urban_speed: float,
    diagonal_fraction: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One city's streets as directed ``(src, dst, minutes)`` edge arrays,
    each street followed by its reverse.

    4-neighbour streets plus a sprinkle of diagonals between the grid slots
    ``offsets`` (slot ``j`` is vertex ``ids[j]``).  Consumes ``rng`` the way a
    slot-by-slot loop would — per slot one street-length double for the
    right neighbour, one for the upper neighbour (each only if it exists),
    then the diagonal coin — and lists the streets in that same order.
    """
    # dense offset -> vertex grid (-1 = no junction), padded by one so the
    # +1 neighbour lookups stay in range
    ix = offsets[:, 0] - offsets[:, 0].min()
    iy = offsets[:, 1] - offsets[:, 1].min()
    grid = np.full((ix.max() + 2, iy.max() + 2), -1, dtype=np.int64)
    grid[ix, iy] = ids
    right = grid[ix + 1, iy]
    up = grid[ix, iy + 1]
    diagonal = grid[ix + 1, iy + 1]
    has_right = right >= 0
    has_up = up >= 0

    draws_per_slot = has_right.astype(np.int64) + has_up + 1
    first_draw = np.cumsum(draws_per_slot) - draws_per_slot
    draws = rng.random(int(draws_per_slot.sum()))
    coin = draws[first_draw + draws_per_slot - 1]
    has_diagonal = (coin < diagonal_fraction) & (diagonal >= 0)

    def street_minutes(stretch: np.ndarray) -> np.ndarray:
        return urban_spacing * (1.0 + 0.2 * stretch) / urban_speed * 60.0

    diagonal_minutes = urban_spacing * np.sqrt(2.0) / urban_speed * 60.0
    kinds = (
        (has_right, right, street_minutes(draws[first_draw[has_right]])),
        (has_up, up, street_minutes(draws[(first_draw + has_right)[has_up]])),
        (has_diagonal, diagonal, np.full(int(has_diagonal.sum()), diagonal_minutes)),
    )
    slots = np.arange(ids.size)
    order = np.argsort(
        np.concatenate(
            [slots[mask] * 3 + kind for kind, (mask, _other, _m) in enumerate(kinds)]
        ),
        kind="stable",
    )
    u = np.concatenate([ids[mask] for mask, _other, _m in kinds])[order]
    v = np.concatenate([other[mask] for mask, other, _m in kinds])[order]
    minutes = np.concatenate([m for _mask, _other, m in kinds])[order]
    return (
        np.stack([u, v], axis=1).ravel(),
        np.stack([v, u], axis=1).ravel(),
        np.repeat(minutes, 2),
    )


#: triples tested against every centre per vectorized step of
#: :func:`_delaunay_edges` (bounds its temporaries to a few hundred KiB)
_TRIPLE_CHUNK = 256


def _delaunay_edges(centers: np.ndarray) -> Set[Tuple[int, int]]:
    """Highway corridors between cities: Delaunay edges of the centres.

    A triple of centres is a Delaunay triangle iff it is not collinear and
    no other centre lies strictly inside its circumcircle; with the 16 – 64
    centres of the presets every triple is tested, in chunks of
    ``_TRIPLE_CHUNK`` triples.  Centres in general position (no four on a
    circle) have exactly one such triangulation, the one Qhull computes;
    four or more on one empty circle keep both crossing diagonals, which
    the generator's randomly placed centres never produce.  All-collinear
    centres have no triangle and fall back to a chain plus
    nearest-neighbour links.  A non-finite centre raises ``ValueError``
    instead of silently changing the highway topology.
    """
    n = centers.shape[0]
    if not np.isfinite(centers).all():
        raise ValueError("city centres must be finite")
    if n <= 1:
        return set()
    if n == 2:
        return {(0, 1)}
    # translated to the centroid, so the lifted |p|^2 terms stay small
    pts = centers - centers.mean(axis=0)
    x, y = pts[:, 0], pts[:, 1]
    edges: Set[Tuple[int, int]] = set()
    for a in range(n - 2):
        # every centre p, translated by a
        wx, wy = x - x[a], y - y[a]
        w2 = wx * wx + wy * wy
        pairs = np.triu_indices(n - a - 1, 1)
        for lo in range(0, pairs[0].size, _TRIPLE_CHUNK):
            b = pairs[0][lo : lo + _TRIPLE_CHUNK] + a + 1
            c = pairs[1][lo : lo + _TRIPLE_CHUNK] + a + 1
            ux, uy, u2 = wx[b], wy[b], w2[b]
            vx, vy, v2 = wx[c], wy[c], w2[c]
            cross = ux * vy - uy * vx
            # in-circle determinant of p against (a, b, c): negative for p
            # strictly inside when the triple is counter-clockwise, so it
            # is taken times the orientation's sign
            sign = np.sign(cross)
            cx = (uy * v2 - u2 * vy) * sign
            cy = (u2 * vx - ux * v2) * sign
            inside = (
                cx[:, None] * wx + cy[:, None] * wy + np.abs(cross)[:, None] * w2
            ) < 0
            rows = np.arange(b.size)
            inside[rows, b] = False
            inside[rows, c] = False
            inside[:, a] = False
            hit = (cross != 0) & ~inside.any(axis=1)
            for j, k in zip(b[hit].tolist(), c[hit].tolist()):
                edges.update(((a, j), (a, k), (j, k)))
    if not edges:
        return _fallback_corridors(centers)
    return edges


def _fallback_corridors(centers: np.ndarray) -> Set[Tuple[int, int]]:
    """A chain in x order plus each centre's nearest-neighbour link."""
    n = centers.shape[0]
    edges: Set[Tuple[int, int]] = set()
    order = np.argsort(centers[:, 0])
    for i in range(n - 1):
        edges.add(
            (min(int(order[i]), int(order[i + 1])),
             max(int(order[i]), int(order[i + 1])))
        )
    for u in range(n):
        d = np.hypot(centers[:, 0] - centers[u, 0], centers[:, 1] - centers[u, 1])
        d[u] = np.inf
        v = int(np.argmin(d))
        edges.add((min(u, v), max(u, v)))
    return edges


def generate_road_network(
    num_cities: int,
    num_urban_vertices: int,
    seed: int = 0,
    region_size: float = 200.0,
    total_population: int = 10_000_000,
    zipf_exponent: float = 1.0,
    urban_spacing: float = 0.25,
    urban_speed: float = 50.0,
    highway_speed: float = 110.0,
    highway_spacing: float = 4.0,
    tag_probability: float = 1.0 / 800.0,
    diagonal_fraction: float = 0.15,
    name: str = "road-network",
) -> RoadNetwork:
    """Generate a hierarchical synthetic road network.

    Parameters
    ----------
    num_cities:
        Number of urban hotspots (16 for the BW-like preset, 64 for GY-like,
        matching §4.1's "16 biggest cities in BW" / "64 biggest cities in GY").
    num_urban_vertices:
        Total urban street-junction budget, split across cities in proportion
        to their Zipf populations.
    region_size:
        Side length of the square region in kilometres.
    urban_spacing / urban_speed:
        Street-grid pitch (km) and urban speed limit (km/h).
    highway_speed / highway_spacing:
        Speed limit (km/h) and vertex pitch (km) of inter-city highways.
    tag_probability:
        Per-vertex probability of carrying a point-of-interest tag (§4.1 uses
        the gas-station/segment ratio; we scale it with graph size).

    Returns
    -------
    RoadNetwork
        Graph (weights = travel-time minutes) plus city metadata.
    """
    if num_cities < 1:
        raise GraphError("need at least one city")
    if num_urban_vertices < num_cities * 4:
        raise GraphError("need at least 4 urban vertices per city")
    rng = np.random.default_rng(seed)

    populations = _zipf_populations(num_cities, total_population, zipf_exponent, rng)
    centers = _place_city_centers(num_cities, region_size, rng)

    shares = populations / populations.sum()
    budgets = np.maximum((shares * num_urban_vertices).astype(np.int64), 4)

    builder = GraphBuilder(0)
    city_vertex_ids: List[np.ndarray] = []
    city_coords: List[np.ndarray] = []

    # ------------------------------------------------------------------
    # 1. urban street grids
    # ------------------------------------------------------------------
    # Batched per city, but drawing from ``rng`` exactly what a per-vertex
    # loop would: ``count`` successive jitter pairs, then the street draws
    # of ``_urban_streets``.
    for ci in range(num_cities):
        count = int(budgets[ci])
        offsets = _urban_grid_offsets(count)
        first = builder.add_vertices(count)
        ids = np.arange(first, first + count, dtype=np.int64)
        city_vertex_ids.append(ids)
        jitter = rng.uniform(-0.15, 0.15, size=(count, 2)) * urban_spacing
        xy = centers[ci] + offsets * urban_spacing + jitter
        builder.set_coords(ids, xy)
        city_coords.append(xy)

        builder.add_edge_arrays(
            *_urban_streets(
                ids, offsets, rng, urban_spacing, urban_speed, diagonal_fraction
            )
        )
    urban_coords = np.concatenate(city_coords)  # urban ids are 0..total-1

    # ------------------------------------------------------------------
    # 2. inter-city highways along Delaunay corridors
    # ------------------------------------------------------------------
    def nearest_urban_vertex(ci: int, toward: np.ndarray) -> int:
        pts = city_coords[ci]
        d = np.hypot(pts[:, 0] - toward[0], pts[:, 1] - toward[1])
        return int(city_vertex_ids[ci][int(np.argmin(d))])

    highway_ids: List[int] = []
    for (a, b) in sorted(_delaunay_edges(centers)):
        start = nearest_urban_vertex(a, centers[b])
        end = nearest_urban_vertex(b, centers[a])
        p0 = urban_coords[start]
        p1 = urban_coords[end]
        dist = float(np.linalg.norm(p1 - p0))
        segments = max(int(dist / highway_spacing), 1)
        prev = start
        for s in range(1, segments):
            t = s / segments
            pos = p0 + t * (p1 - p0)
            pos = pos + rng.uniform(-0.3, 0.3, size=2)
            vid = builder.add_vertices(1)
            builder.set_coord(vid, pos[0], pos[1])
            highway_ids.append(vid)
            seg_len = dist / segments
            minutes = seg_len / highway_speed * 60.0
            builder.add_bidirectional_edge(prev, vid, minutes)
            prev = vid
        minutes = (dist / segments) / highway_speed * 60.0
        builder.add_bidirectional_edge(prev, end, minutes)

    # ------------------------------------------------------------------
    # 3. point-of-interest tags
    # ------------------------------------------------------------------
    n = builder.num_vertices
    tags = rng.random(n) < tag_probability
    for v in np.flatnonzero(tags):
        builder.set_tag(int(v), True)
    if not tags.any() and n > 0:
        # guarantee at least one POI so POI queries can terminate
        builder.set_tag(int(rng.integers(0, n)), True)

    graph = builder.build(name=name)

    city_of_vertex = np.full(n, -1, dtype=np.int64)
    cities: List[City] = []
    for ci in range(num_cities):
        ids = city_vertex_ids[ci]
        city_of_vertex[ids] = ci
        cities.append(
            City(
                city_id=ci,
                center=(float(centers[ci, 0]), float(centers[ci, 1])),
                population=int(populations[ci]),
                vertex_ids=ids,
            )
        )

    return RoadNetwork(graph=graph, cities=cities, city_of_vertex=city_of_vertex)


def baden_wuerttemberg_like(
    scale: float = 1.0, seed: int = 7, tag_probability: Optional[float] = None
) -> RoadNetwork:
    """BW-like preset: 16 hotspot cities (§4.1), ~12k urban vertices at scale 1.

    The real BW extract has 1.8M vertices; query behaviour (localized scopes
    around 16 population-ranked hotspots) is preserved at this scale.
    """
    num_urban = max(int(12_000 * scale), 16 * 4)
    return generate_road_network(
        num_cities=16,
        num_urban_vertices=num_urban,
        seed=seed,
        region_size=180.0,
        total_population=11_000_000,
        zipf_exponent=0.45,
        tag_probability=tag_probability if tag_probability is not None else 1 / 700.0,
        name=f"bw-like-x{scale:g}",
    )


def germany_like(
    scale: float = 1.0, seed: int = 11, tag_probability: Optional[float] = None
) -> RoadNetwork:
    """GY-like preset: 64 hotspot cities (§4.1), ~40k urban vertices at scale 1."""
    num_urban = max(int(40_000 * scale), 64 * 4)
    return generate_road_network(
        num_cities=64,
        num_urban_vertices=num_urban,
        seed=seed,
        region_size=650.0,
        total_population=83_000_000,
        zipf_exponent=1.1,
        tag_probability=tag_probability if tag_probability is not None else 1 / 900.0,
        name=f"gy-like-x{scale:g}",
    )
