"""Domain partitioning — the paper's best-case static expert baseline.

§4.1: "Domain serves as a best-case static partitioning algorithm: a domain
expert, who already knows the hotspots of the query distribution in advance,
manually partitions the graph such that each hotspot is assigned to a single
partition."

We emulate the expert with balanced geographic clustering of the hotspot
cities: cities are grouped onto ``k`` workers such that every city (hotspot)
lies entirely within one partition and groups are geographically contiguous;
every other vertex joins the worker of its nearest city centre.  Because the
expert balances *area*, not *query load*, the population skew of the hotspots
translates into the workload imbalance the paper observes for Domain
(Figure 6e).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import PartitioningError
from repro.graph.digraph import DiGraph
from repro.graph.road_network import RoadNetwork
from repro.partitioning.base import Partitioner

__all__ = ["DomainPartitioner", "group_cities_geographically"]


def group_cities_geographically(
    centers: np.ndarray, k: int, seed: int = 0, rounds: int = 25
) -> np.ndarray:
    """Cluster city centres into ``k`` equally sized geographic groups.

    A balanced variant of Lloyd's algorithm: in every round each city is
    (re-)assigned greedily, nearest-centroid first, subject to a per-group
    capacity of ``ceil(c / k)`` cities.  Deterministic given the seed.
    """
    c = centers.shape[0]
    if k > c:
        raise PartitioningError(f"cannot spread {c} cities over {k} workers")
    rng = np.random.default_rng(seed)
    # initialise centroids with k distinct cities (k-means++-flavoured spread)
    first = int(rng.integers(0, c))
    chosen = [first]
    for _ in range(k - 1):
        d2 = np.full(c, np.inf)
        for idx in chosen:
            d2 = np.minimum(
                d2,
                (centers[:, 0] - centers[idx, 0]) ** 2
                + (centers[:, 1] - centers[idx, 1]) ** 2,
            )
        chosen.append(int(np.argmax(d2)))
    centroids = centers[chosen].copy()

    capacity = int(np.ceil(c / k))
    groups = np.zeros(c, dtype=np.int64)
    for _ in range(rounds):
        counts = np.zeros(k, dtype=np.int64)
        order_cost = np.min(
            np.linalg.norm(centers[:, None, :] - centroids[None, :, :], axis=2),
            axis=1,
        )
        new_groups = np.zeros(c, dtype=np.int64)
        for city in np.argsort(order_cost):
            dists = np.linalg.norm(centroids - centers[city], axis=1)
            for g in np.argsort(dists):
                if counts[g] < capacity:
                    new_groups[city] = g
                    counts[g] += 1
                    break
        if np.array_equal(new_groups, groups):
            break
        groups = new_groups
        for g in range(k):
            members = centers[groups == g]
            if members.size:
                centroids[g] = members.mean(axis=0)
    return groups


class DomainPartitioner(Partitioner):
    """Hotspot-aware expert partitioning for road networks.

    Parameters
    ----------
    road_network:
        The generated network whose city metadata defines the hotspots.
        When absent, the partitioner falls back to coordinate-grid slicing
        (useful for non-road graphs with coordinates).
    """

    name = "domain"

    def __init__(
        self, road_network: Optional[RoadNetwork] = None, seed: int = 0
    ) -> None:
        self.road_network = road_network
        self.seed = int(seed)

    # ------------------------------------------------------------------
    def partition(self, graph: DiGraph, k: int) -> np.ndarray:
        self._check_k(graph, k)
        if self.road_network is not None:
            return self._partition_road_network(self.road_network, graph, k)
        if graph.has_coords():
            return self._partition_by_coordinates(graph, k)
        raise PartitioningError(
            "DomainPartitioner needs a RoadNetwork or vertex coordinates"
        )

    def _partition_road_network(
        self, rn: RoadNetwork, graph: DiGraph, k: int
    ) -> np.ndarray:
        if rn.graph.num_vertices != graph.num_vertices:
            raise PartitioningError("road network does not match graph")
        centers = np.array([c.center for c in rn.cities])
        groups = group_cities_geographically(centers, k, seed=self.seed)
        assignment = np.empty(graph.num_vertices, dtype=np.int64)
        # city vertices follow their city's group — every hotspot is whole
        for city in rn.cities:
            assignment[city.vertex_ids] = groups[city.city_id]
        # highway vertices join the nearest city's worker
        outside = np.flatnonzero(rn.city_of_vertex < 0)
        if outside.size:
            coords = graph.coords
            if coords is None:
                assignment[outside] = 0
            else:
                for v in outside:
                    d = np.linalg.norm(centers - coords[v], axis=1)
                    assignment[v] = groups[int(np.argmin(d))]
        return assignment

    def _partition_by_coordinates(self, graph: DiGraph, k: int) -> np.ndarray:
        """Fallback: recursive coordinate bisection into k equal strips."""
        coords = graph.coords
        if coords is None:  # survives python -O, unlike the assert it replaces
            raise PartitioningError(
                "coordinate bisection fallback requires vertex coordinates"
            )
        order = np.lexsort((coords[:, 1], coords[:, 0]))
        assignment = np.empty(graph.num_vertices, dtype=np.int64)
        bounds = np.linspace(0, graph.num_vertices, k + 1).astype(np.int64)
        for g in range(k):
            assignment[order[bounds[g] : bounds[g + 1]]] = g
        return assignment
