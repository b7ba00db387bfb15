"""Tests for the high-level Q-cut solution state."""

import numpy as np
import pytest

from repro.core import Fragment, QcutState
from repro.errors import ControllerError


def two_unit_state(delta=0.5):
    """Two clusters, three workers; unit 0 split between w0/w1."""
    frags = [
        Fragment(unit=0, origin_worker=0, union_size=10, weighted_size=14),
        Fragment(unit=0, origin_worker=1, union_size=6, weighted_size=8),
        Fragment(unit=1, origin_worker=2, union_size=12, weighted_size=12),
    ]
    base = np.array([100.0, 100.0, 100.0])
    return QcutState(2, 3, frags, base, delta=delta)


class TestConstruction:
    def test_masses(self):
        st = two_unit_state()
        assert st.weighted[0].tolist() == [14.0, 8.0, 0.0]
        assert st.union[1].tolist() == [0.0, 0.0, 12.0]

    def test_duplicate_fragment_rejected(self):
        frags = [
            Fragment(0, 0, 5, 5),
            Fragment(0, 0, 3, 3),
        ]
        with pytest.raises(ControllerError):
            QcutState(1, 2, frags, np.array([10.0, 10.0]))

    def test_weighted_below_union_rejected(self):
        with pytest.raises(ControllerError):
            QcutState(1, 2, [Fragment(0, 0, 10, 5)], np.array([10.0, 10.0]))

    def test_unknown_worker_rejected(self):
        with pytest.raises(ControllerError):
            QcutState(1, 2, [Fragment(0, 7, 5, 5)], np.array([10.0, 10.0]))


class TestCost:
    def test_cost_counts_weighted_minority(self):
        st = two_unit_state()
        # unit 0: total 22, max 14 -> 8; unit 1 fully local -> 0
        assert st.cost() == 8.0

    def test_zero_cost_when_all_fused(self):
        st = two_unit_state()
        st.apply_move(0, 1, 0)
        assert st.cost() == 0.0


class TestLoads:
    def test_load_model(self):
        st = two_unit_state()
        # L_w = (|V(w)| + S_w) / 2 ; |V| = base + union
        expected_w0 = (100 + 10 + 14) / 2
        assert st.loads()[0] == pytest.approx(expected_w0)

    def test_move_load(self):
        st = two_unit_state()
        assert st.move_load(0, 0) == pytest.approx((10 + 14) / 2)

    def test_balance_detection(self):
        st = two_unit_state(delta=0.01)
        assert not st.is_balanced() or st.max_imbalance() < 0.01


class TestMoves:
    def test_apply_move_shifts_both_masses(self):
        st = two_unit_state()
        move = st.apply_move(0, 0, 2)
        assert move.union_size == 10
        assert move.weighted_size == 14
        assert st.weighted[0].tolist() == [0.0, 8.0, 14.0]
        assert st.union[0].tolist() == [0.0, 6.0, 10.0]

    def test_move_updates_placement(self):
        st = two_unit_state()
        st.apply_move(0, 0, 2)
        assert st.placement[(0, 0)] == 2
        assert st.placement[(0, 1)] == 1  # untouched fragment

    def test_move_of_empty_mass_rejected(self):
        st = two_unit_state()
        with pytest.raises(ControllerError):
            st.apply_move(1, 0, 1)  # unit 1 has nothing on w0

    def test_move_to_self_rejected(self):
        st = two_unit_state()
        with pytest.raises(ControllerError):
            st.apply_move(0, 0, 0)

    def test_relocated_fragments(self):
        st = two_unit_state()
        st.apply_move(0, 1, 0)
        assert st.relocated_fragments() == [(0, 1, 0)]

    def test_chained_moves_track_origin(self):
        st = two_unit_state()
        st.apply_move(0, 1, 2)   # fragment (0,1) -> w2
        st.apply_move(0, 2, 0)   # all of unit 0 on w2 -> w0
        assert st.placement[(0, 1)] == 0
        assert st.relocated_fragments() == [(0, 1, 0)]

    def test_relocation_workers(self):
        st = two_unit_state()
        assert st.relocation_workers() == frozenset()
        st.apply_move(0, 1, 2)
        assert st.relocation_workers() == frozenset({1, 2})
        st.apply_move(1, 2, 0)
        assert st.relocation_workers() == frozenset({0, 1, 2})


class TestCopy:
    def test_copy_is_independent(self):
        st = two_unit_state()
        clone = st.copy()
        clone.apply_move(0, 0, 2)
        assert st.weighted[0, 0] == 14.0
        assert clone.weighted[0, 0] == 0.0
        assert st.placement[(0, 0)] == 0
