"""Tests for synthetic graph generators, including the Figure 1 graph."""

from collections import deque

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import (
    NY_CUTS,
    NY_QUERY_SCOPES,
    barabasi_albert,
    grid_graph,
    new_york_districts,
    rmat_graph,
    watts_strogatz,
)
from repro.graph.metrics import edge_cut


def is_connected(g):
    if g.num_vertices == 0:
        return True
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


class TestNewYorkDistricts:
    """Figure 1: the motivating example must reproduce the printed cut sizes."""

    def test_ten_districts(self):
        g = new_york_districts()
        assert g.num_vertices == 10

    def test_connected(self):
        assert is_connected(new_york_districts())

    @pytest.mark.parametrize(
        "cut,expected_undirected",
        [("cut1", 6), ("cut2", 8), ("cut3", 2)],
    )
    def test_figure1_edge_cut_sizes(self, cut, expected_undirected):
        g = new_york_districts()
        side = NY_CUTS[cut]
        assignment = np.array([0 if v in side else 1 for v in range(10)])
        # each undirected connection contributes two directed edges
        assert edge_cut(g, assignment) == 2 * expected_undirected

    def test_cut3_is_minimum_edge_cut_of_the_three(self):
        g = new_york_districts()
        sizes = {}
        for name, side in NY_CUTS.items():
            assignment = np.array([0 if v in side else 1 for v in range(10)])
            sizes[name] = edge_cut(g, assignment)
        assert sizes["cut3"] < sizes["cut1"] < sizes["cut2"]

    def test_cuts1_and_2_do_not_split_queries(self):
        for cut in ("cut1", "cut2"):
            side = NY_CUTS[cut]
            for scope in NY_QUERY_SCOPES.values():
                inside = scope & side
                assert inside == scope or not inside, (
                    f"{cut} splits query scope {scope}"
                )

    def test_cut3_splits_q2(self):
        side = NY_CUTS["cut3"]
        q2 = NY_QUERY_SCOPES["q2"]
        assert q2 & side and q2 - side  # crosses the boundary


class TestGrid:
    def test_dimensions(self):
        g = grid_graph(3, 5)
        assert g.num_vertices == 15
        # internal horizontal: 3*4, vertical: 2*5, each bidirectional
        assert g.num_edges == 2 * (3 * 4 + 2 * 5)

    def test_connected(self):
        assert is_connected(grid_graph(7, 7))

    def test_corner_degree(self):
        g = grid_graph(4, 4)
        assert g.out_degree(0) == 2

    def test_invalid_dims(self):
        with pytest.raises(GraphError):
            grid_graph(0, 5)


class TestRandomModels:
    def test_watts_strogatz_degree_and_clustering(self):
        g = watts_strogatz(60, 6, 0.1, seed=3)
        # total degree preserved by rewiring
        assert g.num_edges == 60 * 6  # bidirectional: n*k/2 undirected
        assert is_connected(g)

    def test_watts_strogatz_validation(self):
        with pytest.raises(GraphError):
            watts_strogatz(10, 3, 0.1)  # odd k
        with pytest.raises(GraphError):
            watts_strogatz(10, 4, 1.5)

    def test_barabasi_albert_hubs(self):
        g = barabasi_albert(200, 2, seed=4)
        degrees = g.out_degrees()
        # preferential attachment produces hubs far above the median
        assert degrees.max() >= 4 * np.median(degrees)
        assert is_connected(g)

    def test_barabasi_albert_validation(self):
        with pytest.raises(GraphError):
            barabasi_albert(5, 0)
        with pytest.raises(GraphError):
            barabasi_albert(5, 5)

    def test_barabasi_albert_edge_count(self):
        g = barabasi_albert(50, 3, seed=0)
        # (n - m) vertices each add m undirected edges -> 2m(n-m) directed
        assert g.num_edges == 2 * 3 * (50 - 3)

    def test_rmat_determinism_and_shape(self):
        g = rmat_graph(300, 4, seed=5)
        assert g == rmat_graph(300, 4, seed=5)
        assert g != rmat_graph(300, 4, seed=6)
        # exactly n vertices for an n that is no power of two; self-loops dropped
        assert g.num_vertices == 300
        assert 0 < g.num_edges <= 300 * 4
        src, dst, w = g.edge_array()
        assert not np.any(src == dst)
        assert w.min() >= 1.0 and w.max() < 2.0

    def test_rmat_degrees_are_skewed(self):
        degrees = rmat_graph(1024, 8, seed=1).out_degrees()
        assert degrees.max() >= 8 * degrees.mean()

    def test_rmat_unweighted(self):
        g = rmat_graph(64, 2, seed=0, weight_range=(3.0, 3.0))
        assert np.all(g.weights == 3.0)

    def test_rmat_validation(self):
        with pytest.raises(GraphError):
            rmat_graph(1)
        with pytest.raises(GraphError):
            rmat_graph(16, 0)
        with pytest.raises(GraphError):
            rmat_graph(16, 2, a=0.6, b=0.3, c=0.3)
