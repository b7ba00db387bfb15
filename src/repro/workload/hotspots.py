"""Hotspot sampling for realistic query workloads (§4.1).

*"To get realistic query workload, we determined the 64 biggest cities in GY
and 16 biggest cities in BW and generated for each query a random start
vertex around these hotspots — keeping the number of queries per city
proportional to their populations.  For SSSP, we also generated an end
vertex with variable euclidean distance to the start vertex to account for
intra- and inter-urban mapping queries."*

Draw contract.  Every draw of a :class:`HotspotSampler` comes from its own
``rng`` (``default_rng(seed)``), in this order:

* a city (:meth:`~HotspotSampler.sample_city`) takes one ``random()`` and
  maps it through the city table, exactly as ``rng.choice(n, p=weights)``
  would: the generator's churn stream draws its cities from the same table;
* a junction (:meth:`~HotspotSampler.sample_vertex_in_city`) takes one
  ``normal(0, sigma, size=2)`` offset from the city centre and returns the
  junction nearest to it (the first one in city order on a tie), or one
  ``integers(0, n)`` on a map without coordinates;
* a neighbouring city takes one ``integers(0, t)`` over the ``t <= 3``
  nearest centres (none on a one-city map);
* an SSSP pair takes a city, a start junction and one ``random()`` for
  intra- against inter-urban, then the end junction (up to eight redraws
  while it equals the start) or a neighbouring city and a junction in it.

The tables behind these draws (the city table, a grid over each city's
junctions, each city's nearest centres) are built once per sampler, the
grid and the centres only for the cities drawn; none of them takes a draw
or changes what a draw returns.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.graph.road_network import RoadNetwork

__all__ = ["HotspotSampler", "JunctionGrid", "choice_table", "draw_from_table"]


def choice_table(p: np.ndarray) -> np.ndarray:
    """The cumulative table ``Generator.choice(p.size, p=p)`` builds on
    every call: ``p.cumsum()`` divided by its last entry.

    Stated here instead of called (as :class:`repro.core.WordStream` states
    ``integers``) so that the table is built once; NEP 19 freezes the
    streams of bit generators, not the methods of ``Generator``.
    """
    cdf = np.asarray(p, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return cdf


def draw_from_table(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """The index ``rng.choice(cdf.size, p=p)`` returns, for ``cdf =
    choice_table(p)``; takes the one ``random()`` that call takes."""
    return int(cdf.searchsorted(rng.random(), side="right"))


class JunctionGrid:
    """The nearest of a set of points, exactly as a full scan finds it.

    :meth:`nearest` returns ``np.argmin(np.hypot(x - tx, y - ty))`` over all
    points, the first index on a tie.  It searches the 3 x 3 block of grid
    cells around the target with that same ``np.hypot`` and keeps the
    block's answer only when it is nearer than any point outside the block
    can be, with a relative safety margin; otherwise it scans every point.
    Building the grid is a pass over the points and a sort by cell; a
    block's point list is gathered the first time a target lands in it.
    """

    #: mean points per cell on a city whose bounding box they fill
    POINTS_PER_CELL = 2
    #: relative safety margin on the block's distance bound, far above the
    #: rounding error of the cell arithmetic
    SAFETY = 1e-9

    def __init__(self, points: np.ndarray) -> None:
        points = np.asarray(points, dtype=np.float64)
        self._x = points[:, 0]
        self._y = points[:, 1]
        self._x0 = float(self._x.min())
        self._y0 = float(self._y.min())
        width = float(self._x.max()) - self._x0
        height = float(self._y.max()) - self._y0
        cells = max(1, self._x.size // self.POINTS_PER_CELL)
        # the larger bound keeps a thin (or collinear) city at <= cells + 1
        # cells per axis
        size = max(math.sqrt(width * height / cells), max(width, height) / cells)
        self._size = size if size > 0.0 else 1.0
        self._nx = int(width / self._size) + 1
        self._ny = int(height / self._size) + 1
        # (x - x0) >= 0 exactly, so truncation is floor
        cx = np.minimum(((self._x - self._x0) / self._size).astype(np.int64), self._nx - 1)
        cy = np.minimum(((self._y - self._y0) / self._size).astype(np.int64), self._ny - 1)
        cell = cx * self._ny + cy
        self._order = np.argsort(cell, kind="stable")
        self._starts = np.searchsorted(cell[self._order], np.arange(self._nx * self._ny + 1))
        self._scale = abs(self._x0) + abs(self._y0) + (self._nx + self._ny) * self._size
        #: (cx, cy) -> (point ids ascending, their x, their y, block edges)
        self._blocks: Dict[
            Tuple[int, int],
            Tuple[np.ndarray, np.ndarray, np.ndarray, Tuple[float, float, float, float]],
        ] = {}

    def _cell(self, t: float, origin: float, count: int) -> int:
        # clamped before the floor: a far target's quotient may be infinite
        q = (t - origin) / self._size
        return 0 if q < 0.0 else count - 1 if q >= count else int(q)

    def _block(self, cx: int, cy: int):
        # the block's cells of one grid column are consecutive cell ids
        lo, hi = max(cy - 1, 0), min(cy + 2, self._ny)
        starts = self._starts
        idx = np.sort(
            np.concatenate(
                [
                    self._order[starts[i * self._ny + lo] : starts[i * self._ny + hi]]
                    for i in range(max(cx - 1, 0), min(cx + 2, self._nx))
                ]
            )
        )
        size = self._size
        # a point outside the block lies beyond one of its edges; an edge
        # with no cell beyond it bounds nothing
        edges = (
            self._x0 + (cx - 1) * size if cx >= 2 else -math.inf,
            self._x0 + (cx + 2) * size if cx + 2 < self._nx else math.inf,
            self._y0 + (cy - 1) * size if cy >= 2 else -math.inf,
            self._y0 + (cy + 2) * size if cy + 2 < self._ny else math.inf,
        )
        block = (idx, self._x[idx], self._y[idx], edges)
        self._blocks[cx, cy] = block
        return block

    def nearest(self, tx: float, ty: float) -> int:
        """Index of the point nearest to ``(tx, ty)``, the first on a tie."""
        cx = self._cell(tx, self._x0, self._nx)
        cy = self._cell(ty, self._y0, self._ny)
        block = self._blocks.get((cx, cy))
        if block is None:
            block = self._block(cx, cy)
        idx, bx, by, (left, right, bottom, top) = block
        if idx.size:
            d = np.hypot(bx - tx, by - ty)
            j = int(d.argmin())
            margin = min(tx - left, right - tx, ty - bottom, top - ty)
            tolerance = self.SAFETY * (self._scale + abs(tx) + abs(ty))
            if d[j] < margin - tolerance:
                return int(idx[j])
        return int(np.argmin(np.hypot(self._x - tx, self._y - ty)))


class HotspotSampler:
    """Population-proportional sampling of query endpoints.

    Vertices are sampled *around* the hotspot centres (Gaussian with
    standard deviation ``concentration x city radius``), matching §4.1's
    "random start vertex around these hotspots": queries from the same city
    overlap heavily on the hot core, which is what allows Q-cut to
    consolidate scopes that future queries will hit again.
    """

    def __init__(
        self,
        road_network: RoadNetwork,
        seed: int = 0,
        concentration: float = 0.18,
        max_sigma: float = 1.0,
    ) -> None:
        if road_network.num_cities == 0:
            raise WorkloadError("road network has no cities")
        if concentration <= 0:
            raise WorkloadError("concentration must be positive")
        self.rn = road_network
        self.rng = np.random.default_rng(seed)
        self.concentration = float(concentration)
        #: absolute cap (km) on the hotspot spread — keeps query scopes
        #: small relative to the graph even for the largest cities, the
        #: size regime of the paper's localized mapping queries
        self.max_sigma = float(max_sigma)
        #: the city table (:func:`choice_table` of the population shares)
        self.city_table = choice_table(road_network.population_weights())
        self._centers = np.array([c.center for c in road_network.cities])
        graph = road_network.graph
        self._city_coords = {}
        self._city_radius = {}
        if graph.has_coords():
            for city in road_network.cities:
                pts = graph.coords[city.vertex_ids]
                self._city_coords[city.city_id] = pts
                spread = np.hypot(
                    pts[:, 0] - city.center[0], pts[:, 1] - city.center[1]
                )
                self._city_radius[city.city_id] = float(max(spread.max(), 1e-9))
        #: per city, built at its first junction draw
        self._city_grids: Dict[int, JunctionGrid] = {}
        #: per city, its (up to) three nearest other centres
        self._neighbors: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    def sample_city(self) -> int:
        """A city index drawn proportionally to population."""
        return draw_from_table(self.city_table, self.rng)

    def sample_vertex_in_city(self, city_id: int) -> int:
        """A street junction near the city's hotspot centre."""
        ids = self.rn.city_vertices(city_id)
        pts = self._city_coords.get(city_id)
        if pts is None:
            return int(ids[int(self.rng.integers(0, ids.size))])
        center = self._centers[city_id]
        sigma = min(self.concentration * self._city_radius[city_id], self.max_sigma)
        target = center + self.rng.normal(0.0, sigma, size=2)
        grid = self._city_grids.get(city_id)
        if grid is None:
            grid = self._city_grids[city_id] = JunctionGrid(pts)
        return int(ids[grid.nearest(float(target[0]), float(target[1]))])

    def neighboring_city(self, city_id: int) -> int:
        """A random *neighbouring* city (one of the 3 nearest centres).

        Used for the Fig. 5 disturbance: "inter-urban queries between random
        neighboring cities".
        """
        if self.rn.num_cities == 1:
            return city_id
        top = self._neighbors.get(city_id)
        if top is None:
            d = np.linalg.norm(self._centers - self._centers[city_id], axis=1)
            d[city_id] = np.inf
            # only finite-distance entries are candidates: on a map of <= 3
            # cities the self city's inf sentinel would enter the top 3
            order = np.argsort(d)
            order = order[np.isfinite(d[order])]
            top = self._neighbors[city_id] = order[: min(3, order.size)]
        return int(top[int(self.rng.integers(0, top.size))])

    # ------------------------------------------------------------------
    def sample_sssp_endpoints(self, intra_probability: float = 1.0) -> Tuple[int, int]:
        """A (start, end) pair: intra-urban with the given probability,
        otherwise inter-urban toward a neighbouring city."""
        if not 0.0 <= intra_probability <= 1.0:
            raise WorkloadError("intra_probability must be in [0, 1]")
        city = self.sample_city()
        start = self.sample_vertex_in_city(city)
        if self.rng.random() < intra_probability:
            end = self.sample_vertex_in_city(city)
            attempts = 0
            while end == start and attempts < 8:
                end = self.sample_vertex_in_city(city)
                attempts += 1
        else:
            other = self.neighboring_city(city)
            end = self.sample_vertex_in_city(other)
        return start, end

    def sample_poi_start(self) -> int:
        """A start vertex for a POI query (population-weighted hotspot)."""
        return self.sample_vertex_in_city(self.sample_city())

    def sample_hotspot_vertex(self, city_id: Optional[int] = None) -> int:
        """A hotspot vertex — in a given city or a population-sampled one."""
        if city_id is None:
            city_id = self.sample_city()
        return self.sample_vertex_in_city(city_id)
