"""Tests for Algorithm 1 (iterated local search)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Fragment, QcutState, iterated_local_search, local_search


def hash_like_state(num_units=8, k=4, mass=12, base=2000.0, delta=0.3):
    """Every cluster scattered evenly (what Hash partitioning looks like)."""
    frags = [
        Fragment(u, w, mass, mass) for u in range(num_units) for w in range(k)
    ]
    return QcutState(num_units, k, frags, np.full(k, base), delta=delta)


class TestIls:
    def test_reduces_cost(self):
        st = hash_like_state()
        res = iterated_local_search(st, max_rounds=10, seed=0)
        assert res.best_cost < res.initial_cost
        assert res.improvement > 0.5

    def test_input_not_mutated(self):
        st = hash_like_state()
        snapshot = st.weighted.copy()
        iterated_local_search(st, max_rounds=5, seed=0)
        assert np.array_equal(st.weighted, snapshot)

    def test_best_state_consistent_with_best_cost(self):
        st = hash_like_state()
        res = iterated_local_search(st, max_rounds=10, seed=1)
        assert res.best_state.cost() == pytest.approx(res.best_cost)

    def test_cost_trace_monotone(self):
        st = hash_like_state()
        res = iterated_local_search(st, max_rounds=20, seed=2)
        costs = [c for _r, c in res.cost_trace]
        assert all(a >= b for a, b in zip(costs, costs[1:]))

    def test_perturbation_rounds_recorded(self):
        st = hash_like_state()
        res = iterated_local_search(st, max_rounds=10, seed=3)
        assert res.perturbation_rounds
        assert res.perturbation_rounds[0] == 1

    def test_zero_rounds_still_descends(self):
        """Round 0 (initial local search) runs even with no perturbations."""
        st = hash_like_state()
        res = iterated_local_search(st, max_rounds=0, seed=4)
        assert res.best_cost < res.initial_cost

    def test_interruptible(self):
        st = hash_like_state()
        calls = []

        def stop_after_two():
            calls.append(1)
            return len(calls) > 2

        res = iterated_local_search(st, max_rounds=50, terminated=stop_after_two)
        assert res.rounds <= 3
        # still returns the best-so-far solution (requirement (b) of §3.2.2)
        assert res.best_state is not None

    def test_balance_dominates_acceptance(self):
        """A balanced incumbent is never replaced by an unbalanced state."""
        st = hash_like_state(delta=0.25)
        res = iterated_local_search(st, max_rounds=30, seed=5)
        assert res.best_state.is_balanced()

    def test_deterministic(self):
        st = hash_like_state()
        a = iterated_local_search(st, max_rounds=15, seed=9)
        b = iterated_local_search(st, max_rounds=15, seed=9)
        assert a.best_cost == b.best_cost
        assert a.cost_trace == b.cost_trace

    def test_figure_6g_shape(self):
        """Fig. 6g: costs drop by more than 75% during one ILS run."""
        st = hash_like_state(num_units=16, k=8, mass=10, base=4000.0, delta=0.3)
        res = iterated_local_search(st, max_rounds=40, seed=6)
        assert res.improvement >= 0.75

    def test_empty_state(self):
        st = QcutState(0, 2, [], np.array([10.0, 10.0]))
        res = iterated_local_search(st, max_rounds=5)
        assert res.best_cost == 0.0


def cut_free_skewed_state():
    """Eight clusters, each wholly on worker 0: no query-cut, imbalance 0.5."""
    frags = [Fragment(u, 0, 10, 10) for u in range(8)]
    return QcutState(8, 4, frags, np.array([0.0, 80.0, 80.0, 80.0]), delta=0.25)


@st.composite
def integer_mass_states(draw):
    """Q-cut states whose masses and base are integers, so costs compare
    exactly."""
    k = draw(st.integers(min_value=2, max_value=5))
    num_units = draw(st.integers(min_value=1, max_value=6))
    frags = []
    for u in range(num_units):
        for w in draw(st.sets(st.integers(0, k - 1), min_size=1, max_size=k)):
            union = draw(st.integers(min_value=1, max_value=30))
            frags.append(Fragment(u, w, union, union + draw(st.integers(0, 20))))
    base = draw(st.lists(st.integers(0, 300), min_size=k, max_size=k))
    delta = draw(st.sampled_from([0.1, 0.25, 0.5]))
    return QcutState(num_units, k, frags, np.array(base, dtype=np.float64), delta=delta)


class TestCostFirst:
    """``balance_first=False``: a candidate must cut cost and may not be
    more unbalanced than the incumbent."""

    def test_cut_free_state_relocates_nothing(self):
        res = iterated_local_search(
            cut_free_skewed_state(), max_rounds=20, seed=0, balance_first=False
        )
        assert res.rounds <= 1
        assert res.best_cost == 0.0
        assert res.best_state.relocated_fragments() == []

    def test_balance_first_repairs_the_same_state(self):
        state = cut_free_skewed_state()
        assert not state.is_balanced()
        res = iterated_local_search(state, max_rounds=20, seed=0)
        assert res.best_state.relocated_fragments()
        assert res.best_state.is_balanced()

    @given(integer_mass_states(), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_never_costlier_and_never_less_balanced_than_round_zero(
        self, state, seed
    ):
        round_zero = local_search(state.copy())
        res = iterated_local_search(state, max_rounds=8, seed=seed, balance_first=False)
        assert res.best_state.cost() <= round_zero.cost()
        assert res.best_state.max_imbalance() <= max(
            round_zero.max_imbalance(), state.delta
        )


def pairwise_drift_state():
    """A δ-balanced state (imbalance 0.20) whose local search drifts out of
    balance: Algorithm 2 line 15 checks only the move's source and target,
    so two pairwise-feasible moves (cost 3 → 2 → 0) end at loads
    (11, 13.5, 10), imbalance 0.26 > δ = 0.25.  No zero-cost state of
    these two clusters is balanced; the cost-2 state after the first move
    is (imbalance 0.23)."""
    frags = [
        Fragment(0, 0, 7, 7),
        Fragment(0, 1, 1, 1),
        Fragment(1, 0, 2, 2),
        Fragment(1, 1, 4, 4),
    ]
    return QcutState(2, 3, frags, np.array([6.0, 15.0, 20.0]), delta=0.25)


class TestSolutionBalance:
    """Appendix A.1: all solution states have balanced workload."""

    def test_input_is_balanced_and_cut(self):
        state = pairwise_drift_state()
        assert state.is_balanced()
        assert state.cost() == 3.0

    @pytest.mark.xfail(
        strict=True,
        reason="iterated_local_search accepts its round-0 local search "
        "without its own `better` test, so a balanced input can end "
        "unbalanced; later rounds only accept less-unbalanced states and "
        "never get back under δ (also fails "
        "benchmarks/bench_fig6g_ils_convergence.py: 0.096 → 0.42 → 0.27)",
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_best_state_balanced_or_no_worse_than_input(self, seed):
        state = pairwise_drift_state()
        res = iterated_local_search(state, max_rounds=60, seed=seed)
        best = res.best_state
        assert best.is_balanced() or best.max_imbalance() <= state.max_imbalance()
