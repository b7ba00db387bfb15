"""Tests for the synthetic road-network generator (the OSM substitute)."""

import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph import baden_wuerttemberg_like, generate_road_network, germany_like
from repro.graph.road_network import _delaunay_edges, _place_city_centers


@pytest.fixture(scope="module")
def small_network():
    return generate_road_network(
        num_cities=6, num_urban_vertices=1200, seed=42, region_size=80.0
    )


def is_connected(g):
    seen = np.zeros(g.num_vertices, dtype=bool)
    seen[0] = True
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in g.out_neighbors(u):
            if not seen[v]:
                seen[v] = True
                queue.append(int(v))
    return bool(seen.all())


class TestStructure:
    def test_city_count(self, small_network):
        assert small_network.num_cities == 6

    def test_connected(self, small_network):
        assert is_connected(small_network.graph)

    def test_city_sizes_follow_population_rank(self, small_network):
        cities = small_network.cities
        pops = [c.population for c in cities]
        assert pops == sorted(pops, reverse=True)
        # biggest city has the most vertices (ties broken by rank)
        assert cities[0].num_vertices >= cities[-1].num_vertices

    def test_city_of_vertex_consistency(self, small_network):
        rn = small_network
        for city in rn.cities:
            assert np.all(rn.city_of_vertex[city.vertex_ids] == city.city_id)

    def test_highway_vertices_outside_cities(self, small_network):
        rn = small_network
        urban = sum(c.num_vertices for c in rn.cities)
        assert rn.graph.num_vertices > urban  # highways exist
        assert np.count_nonzero(rn.city_of_vertex < 0) == rn.graph.num_vertices - urban

    def test_coords_and_tags_attached(self, small_network):
        g = small_network.graph
        assert g.has_coords()
        assert g.has_tags()
        assert g.tagged_vertices().size >= 1

    def test_travel_time_weights(self, small_network):
        # urban streets: ~0.25 km at 50 km/h -> ~0.3 min; all weights positive
        g = small_network.graph
        assert np.all(g.weights > 0)
        assert g.weights.max() < 10.0  # minutes per segment stays sane

    def test_population_weights_sum_to_one(self, small_network):
        assert small_network.population_weights().sum() == pytest.approx(1.0)

    def test_nearest_city(self, small_network):
        rn = small_network
        for city in rn.cities[:3]:
            assert rn.nearest_city(*city.center) == city.city_id

    def test_city_vertices_bad_id(self, small_network):
        with pytest.raises(GraphError):
            small_network.city_vertices(99)


class TestDeterminism:
    def test_same_seed_same_graph(self):
        a = generate_road_network(4, 400, seed=9, region_size=50.0)
        b = generate_road_network(4, 400, seed=9, region_size=50.0)
        assert a.graph == b.graph

    def test_different_seed_different_graph(self):
        a = generate_road_network(4, 400, seed=9, region_size=50.0)
        b = generate_road_network(4, 400, seed=10, region_size=50.0)
        assert a.graph != b.graph


class TestPresets:
    def test_bw_preset(self):
        rn = baden_wuerttemberg_like(scale=0.1)
        assert rn.num_cities == 16
        assert rn.graph.num_vertices > 1000

    def test_gy_preset(self):
        rn = germany_like(scale=0.05)
        assert rn.num_cities == 64
        assert rn.graph.num_vertices > 2000

    def test_gy_more_skewed_than_bw(self):
        bw = baden_wuerttemberg_like(scale=0.1)
        gy = germany_like(scale=0.05)
        assert gy.population_weights()[0] > bw.population_weights()[0] * 0.9


class TestValidation:
    def test_rejects_zero_cities(self):
        with pytest.raises(GraphError):
            generate_road_network(0, 100)

    def test_rejects_too_few_vertices(self):
        with pytest.raises(GraphError):
            generate_road_network(10, 20)


class TestHighwayCorridors:
    def test_malformed_centres_raise(self):
        """A NaN centre is a bug upstream, not a degenerate point set: it
        must not turn into a silently different highway topology."""
        centers = np.array([[0.0, 0.0], [1.0, np.nan], [2.0, 3.0]])
        with pytest.raises(ValueError):
            _delaunay_edges(centers)

    def test_degenerate_centres_fall_back_to_a_chain(self):
        """Collinear centres have no triangulation (Qhull's error): chain
        plus nearest-neighbour links, as documented."""
        centers = np.array([[2.0, 2.0], [0.0, 0.0], [1.0, 1.0], [3.0, 3.0]])
        assert _delaunay_edges(centers) == {(0, 2), (0, 3), (1, 2)}

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(3, 64),
        placement=st.sampled_from(["cities", "uniform"]),
    )
    def test_matches_qhull_in_general_position(self, seed, count, placement):
        """The edge set of scipy's (Qhull's) Delaunay triangulation, for
        centres as the generator places them and for uniform points (both
        in general position with probability one)."""
        from scipy.spatial import Delaunay

        rng = np.random.default_rng(seed)
        if placement == "cities":
            centers = _place_city_centers(count, 200.0, rng)
        else:
            centers = rng.uniform(-50.0, 50.0, size=(count, 2))
        expected = set()
        for simplex in Delaunay(centers).simplices:
            for a in range(3):
                u, v = int(simplex[a]), int(simplex[(a + 1) % 3])
                expected.add((min(u, v), max(u, v)))
        assert _delaunay_edges(centers) == expected


def build_peak_bytes_per_edge(preset):
    tracemalloc.start()
    try:
        network = preset(scale=1.0)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / network.graph.num_edges


class TestBuildMemory:
    def test_bw_build_peaks_under_128_bytes_per_edge(self):
        """The builder keeps its edges as array chunks (24 B an edge), not
        three Python lists: the whole BW-like build peaks at <= 128 B per
        edge under tracemalloc (193 B with the lists)."""
        assert build_peak_bytes_per_edge(baden_wuerttemberg_like) <= 128

    def test_gy_build_peaks_under_128_bytes_per_edge(self):
        """The same bound with 64 cities, where the Delaunay triangulation
        tests 41 664 triples of centres: it does so in chunks small enough
        not to set the build's peak."""
        assert build_peak_bytes_per_edge(germany_like) <= 128
