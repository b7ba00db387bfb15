"""Tests for the extension query programs (BFS, PPR, k-hop, reach, WCC)."""

from collections import deque

import pytest

from repro.core import Controller
from repro.engine import EngineConfig, QGraphEngine, Query
from repro.errors import QueryError
from repro.graph import GraphBuilder, barabasi_albert, grid_graph, watts_strogatz
from repro.partitioning import HashPartitioner
from repro.queries import (
    BfsProgram,
    KHopProgram,
    LocalPageRankProgram,
    LocalWccProgram,
    PoiProgram,
    ReachabilityProgram,
    SsspProgram,
)
from repro.simulation.cluster import make_cluster


def run_query(graph, program, initial, k=3):
    assignment = HashPartitioner(seed=1).partition(graph, k)
    eng = QGraphEngine(
        graph,
        make_cluster("M2", k),
        assignment,
        controller=Controller(k),
        config=EngineConfig(adaptive=False),
    )
    eng.submit(Query(0, program, initial))
    eng.run()
    return eng.query_result(0)


def reference_bfs(graph, source):
    depth = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.out_neighbors(u):
            if int(v) not in depth:
                depth[int(v)] = depth[u] + 1
                queue.append(int(v))
    return depth


class TestBfs:
    def test_depths_match_reference(self):
        g = grid_graph(6, 6)
        result = run_query(g, BfsProgram(0), (0,))
        assert result["depths"] == reference_bfs(g, 0)

    def test_target_depth(self):
        g = grid_graph(6, 6)
        result = run_query(g, BfsProgram(0, target=35), (0,))
        assert result["depth"] == 10

    def test_max_depth_bounds_exploration(self):
        g = grid_graph(8, 8)
        result = run_query(g, BfsProgram(0, max_depth=2), (0,))
        assert all(d <= 2 for d in result["depths"].values())
        assert result["reached"] == 6  # 1 + 2 + 3 vertices within 2 hops

    def test_validation(self):
        with pytest.raises(QueryError):
            BfsProgram(-1)
        with pytest.raises(QueryError):
            BfsProgram(0, max_depth=-1)


class TestReachability:
    def chain_with_branch(self):
        b = GraphBuilder(6)
        b.add_edge(0, 1, 1.0)
        b.add_edge(1, 2, 1.0)
        b.add_edge(2, 3, 1.0)
        b.add_edge(4, 5, 1.0)  # disconnected pair
        return b.build()

    def test_reachable(self):
        g = self.chain_with_branch()
        result = run_query(g, ReachabilityProgram(0, 3), (0,), k=2)
        assert result["reachable"] is True

    def test_unreachable(self):
        g = self.chain_with_branch()
        result = run_query(g, ReachabilityProgram(0, 5), (0,), k=2)
        assert result["reachable"] is False

    def test_direction_matters(self):
        g = self.chain_with_branch()
        result = run_query(g, ReachabilityProgram(3, 0), (3,), k=2)
        assert result["reachable"] is False

    def test_early_stop_limits_visits(self):
        g = grid_graph(8, 8)
        near = run_query(g, ReachabilityProgram(0, 1), (0,), k=2)
        assert near["reachable"]
        assert near["visited"] < 64


class TestKHop:
    def test_khop_members(self):
        g = grid_graph(5, 5)
        result = run_query(g, KHopProgram(12, 1), (12,), k=2)
        assert sorted(result["members"]) == sorted([12, 7, 11, 13, 17])
        assert result["size"] == 5

    def test_khop_zero(self):
        g = grid_graph(5, 5)
        result = run_query(g, KHopProgram(12, 0), (12,), k=2)
        assert result["members"] == [12]

    def test_khop_matches_bfs_ball(self):
        g = watts_strogatz(50, 4, 0.1, seed=2)
        ref = reference_bfs(g, 0)
        result = run_query(g, KHopProgram(0, 3), (0,))
        expected = sorted(v for v, d in ref.items() if d <= 3)
        assert result["members"] == expected


class TestLocalPageRank:
    def test_mass_conservation(self):
        g = barabasi_albert(120, 2, seed=5)
        result = run_query(g, LocalPageRankProgram(0, epsilon=1e-4), (0,))
        total = sum(result["scores"].values()) + result["residual_mass"]
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_seed_has_highest_score(self):
        g = barabasi_albert(120, 2, seed=5)
        result = run_query(g, LocalPageRankProgram(0, epsilon=1e-4), (0,))
        top_vertex, _ = result["top"][0]
        assert top_vertex == 0

    def test_localized(self):
        g = barabasi_albert(400, 2, seed=6)
        result = run_query(g, LocalPageRankProgram(3, epsilon=1e-3), (3,))
        assert len(result["scores"]) < 400  # does not touch the whole graph

    def test_residual_below_epsilon_degree(self):
        g = grid_graph(6, 6)
        result = run_query(g, LocalPageRankProgram(0, epsilon=1e-3), (0,))
        # every vertex stopped pushing: r < eps * deg
        for v, p in result["scores"].items():
            assert p >= 0.0

    def test_validation(self):
        with pytest.raises(QueryError):
            LocalPageRankProgram(0, alpha=1.5)
        with pytest.raises(QueryError):
            LocalPageRankProgram(0, epsilon=0.0)


class TestLocalWcc:
    def test_labels_within_budget(self):
        g = grid_graph(6, 6)
        result = run_query(g, LocalWccProgram(max_hops=2), (0, 35), k=2)
        labels = result["labels"]
        # both seeds present with their own labels (too far to merge in 2 hops)
        assert labels[0] == 0
        assert labels[35] == 35
        assert result["visited"] < 36

    def test_connected_seeds_merge(self):
        g = grid_graph(4, 4)
        result = run_query(g, LocalWccProgram(max_hops=8), (0, 15), k=2)
        labels = result["labels"]
        # with enough hops the smaller label wins everywhere reachable
        assert set(labels.values()) == {0}

    def test_component_sizes(self):
        g = grid_graph(4, 4)
        result = run_query(g, LocalWccProgram(max_hops=8), (0,), k=2)
        assert result["component_sizes"] == {0: 16}


#: each wavefront program and the argument tuples it must refuse
INVALID_WAVEFRONT_ARGS = {
    "sssp": (SsspProgram, [(-1,), (0, -1)]),
    "poi": (PoiProgram, [(-1,)]),
    "bfs": (BfsProgram, [(-1,), (0, -1), (0, None, -1)]),
    "khop": (KHopProgram, [(-1, 2), (0, -1)]),
}


@pytest.mark.parametrize("kind", sorted(INVALID_WAVEFRONT_ARGS))
def test_wavefront_programs_refuse_negative_vertices_and_depths(kind):
    """A negative start, target or depth cap is refused by every wavefront
    program that takes one: a negative target would match no vertex, so
    the query would run unpruned and answer ``None``."""
    program, invalid = INVALID_WAVEFRONT_ARGS[kind]
    for args in invalid:
        with pytest.raises(QueryError):
            program(*args)
