"""Tests for partitioning-quality metrics."""

import numpy as np
import pytest

from repro.errors import PartitioningError
from repro.graph import (
    GraphBuilder,
    edge_cut,
    grid_graph,
    partition_sizes,
    vertex_balance,
)


def path_graph(n):
    b = GraphBuilder(n)
    for i in range(n - 1):
        b.add_bidirectional_edge(i, i + 1, 1.0)
    return b.build()


class TestEdgeCut:
    def test_no_cut_single_partition(self):
        g = path_graph(6)
        assert edge_cut(g, np.zeros(6, dtype=int)) == 0

    def test_path_split_in_middle(self):
        g = path_graph(6)
        assignment = np.array([0, 0, 0, 1, 1, 1])
        assert edge_cut(g, assignment) == 2  # one undirected edge = 2 directed

    def test_alternating_assignment(self):
        g = path_graph(4)
        assignment = np.array([0, 1, 0, 1])
        assert edge_cut(g, assignment) == 6  # all 3 undirected edges cut

    def test_a_one_way_edge_counts_once(self):
        b = GraphBuilder(3)
        b.add_edge(0, 1, 1.0)
        b.add_bidirectional_edge(1, 2, 1.0)
        g = b.build()
        assert edge_cut(g, np.array([0, 1, 1])) == 1
        assert edge_cut(g, np.array([0, 0, 1])) == 2

    def test_negative_worker_ids_rejected(self):
        g = path_graph(3)
        with pytest.raises(PartitioningError):
            edge_cut(g, np.array([0, -1, 0]))

    def test_bad_shape(self):
        g = path_graph(4)
        with pytest.raises(PartitioningError):
            edge_cut(g, np.zeros(3, dtype=int))


class TestBalance:
    def test_perfect_balance(self):
        g = grid_graph(4, 4)
        assignment = np.repeat(np.arange(4), 4)
        assert vertex_balance(g, assignment, 4) == pytest.approx(1.0)
        assert partition_sizes(g, assignment, 4).tolist() == [4, 4, 4, 4]

    def test_imbalance(self):
        g = path_graph(8)
        assignment = np.array([0] * 6 + [1] * 2)
        assert vertex_balance(g, assignment, 2) == pytest.approx(6 / 4)

    def test_assignment_beyond_k(self):
        g = path_graph(4)
        with pytest.raises(PartitioningError):
            partition_sizes(g, np.array([0, 1, 2, 5]), 3)
