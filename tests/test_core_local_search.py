"""Tests for Algorithm 2 (local search) and its vectorised successor scan."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Fragment, QcutState, best_successor, local_search
from repro.core.local_search import _candidate_tensor


def scattered_state(delta=0.9):
    """One cluster spread over 4 workers with plenty of balance headroom."""
    frags = [Fragment(0, w, 10, 10) for w in range(4)]
    base = np.array([1000.0] * 4)
    return QcutState(1, 4, frags, base, delta=delta)


class TestBestSuccessor:
    def test_finds_improving_move(self):
        st = scattered_state()
        result = best_successor(st)
        assert result is not None
        unit, w_from, w_to, delta_cost = result
        assert delta_cost < 0

    def test_no_moves_on_empty_state(self):
        st = QcutState(0, 3, [], np.array([10.0, 10.0, 10.0]))
        assert best_successor(st) is None

    def test_respects_balance_constraint(self):
        # tiny delta: every move would unbalance the moved pair
        frags = [Fragment(0, 0, 50, 50), Fragment(0, 1, 50, 50)]
        st = QcutState(1, 2, frags, np.array([10.0, 10.0]), delta=0.01)
        result = best_successor(st)
        assert result is None

    def test_delta_cost_matches_real_cost_change(self):
        st = scattered_state()
        unit, w_from, w_to, predicted = best_successor(st)
        before = st.cost()
        st.apply_move(unit, w_from, w_to)
        assert st.cost() - before == pytest.approx(predicted)

    def test_exhaustive_agreement_on_random_states(self):
        """The vectorised scan must match brute-force enumeration."""
        rng = np.random.default_rng(7)
        for trial in range(10):
            U, k = int(rng.integers(1, 5)), int(rng.integers(2, 5))
            frags = []
            for u in range(U):
                for w in range(k):
                    if rng.random() < 0.7:
                        size = int(rng.integers(1, 20))
                        frags.append(Fragment(u, w, size, size + int(rng.integers(0, 5))))
            if not frags:
                continue
            base = rng.uniform(50, 150, size=k)
            st = QcutState(U, k, frags, base, delta=0.6)
            # brute force
            best_delta = np.inf
            for u in range(U):
                for a in range(k):
                    if st.weighted[u, a] <= 0:
                        continue
                    for b in range(k):
                        if a == b:
                            continue
                        x = st.move_load(u, a)
                        if not st.pair_balance_ok(a, b, x):
                            continue
                        clone = st.copy()
                        before = clone.cost()
                        clone.apply_move(u, a, b)
                        best_delta = min(best_delta, clone.cost() - before)
            result = best_successor(st)
            if result is None:
                assert best_delta == np.inf
            else:
                assert result[3] == pytest.approx(best_delta)


class TestLocalSearch:
    def test_reaches_zero_cost_with_headroom(self):
        st = scattered_state(delta=0.9)
        out = local_search(st)
        assert out.cost() == 0.0

    def test_never_increases_cost(self):
        st = scattered_state()
        before = st.cost()
        out = local_search(st)
        assert out.cost() <= before

    def test_terminates_at_local_minimum(self):
        st = scattered_state()
        out = local_search(st)
        nxt = best_successor(out)
        assert nxt is None or nxt[3] >= 0.0

    def test_max_steps_guard(self):
        st = scattered_state()
        out = local_search(st, max_steps=1)
        # only one move applied
        assert (out.weighted[0] > 0).sum() >= 2

    def test_multi_cluster_consolidation(self):
        frags = []
        for u in range(4):
            for w in range(4):
                frags.append(Fragment(u, w, 5, 5))
        st = QcutState(4, 4, frags, np.array([500.0] * 4), delta=0.9)
        out = local_search(st)
        assert out.cost() == 0.0
        # every cluster fused on exactly one worker
        assert ((out.weighted > 0).sum(axis=1) == 1).all()


# ----------------------------------------------------------------------
# the successor scan as first written — the oracle the trimmed
# ``_candidate_tensor`` is held to, exactly
# ----------------------------------------------------------------------
def reference_candidate_tensor(state):
    """Full ``argsort`` for the two row maxima, the cost change as the
    difference of the two contributions, the diagonal struck by fancy
    assignment."""
    weighted = state.weighted
    union = state.union
    U, k = weighted.shape
    if U == 0:
        return np.zeros((0, k, k)), np.zeros((0, k, k), dtype=bool)
    xw = weighted[:, :, None]
    order = np.argsort(weighted, axis=1)
    top1_idx = order[:, -1]
    rows = np.arange(U)
    top1 = weighted[rows, top1_idx]
    top2 = weighted[rows, order[:, -2]] if k >= 2 else np.zeros(U)
    max_excl = np.repeat(top1[:, None], k, axis=1)
    max_excl[rows, top1_idx] = top2
    target_val = weighted[:, None, :] + xw
    new_max = np.maximum(max_excl[:, :, None], target_val)
    totals = weighted.sum(axis=1)
    old_contrib = totals - top1
    new_contrib = totals[:, None, None] - new_max
    delta = new_contrib - old_contrib[:, None, None]

    feasible = np.broadcast_to(weighted[:, :, None] > 0, (U, k, k)).copy()
    diag = np.arange(k)
    feasible[:, diag, diag] = False
    x_load = (union[:, :, None] + xw) / 2.0
    loads = state.loads()
    lf = loads[None, :, None] - x_load
    lt = loads[None, None, :] + x_load
    top = np.abs(lf - lt)
    bottom = np.maximum(lf, lt)
    with np.errstate(divide="ignore", invalid="ignore"):
        imbalance = np.where(bottom > 0, top / bottom, 0.0)
    feasible &= imbalance < state.delta
    return delta, feasible


def reference_best_successor(state):
    delta, feasible = reference_candidate_tensor(state)
    if not feasible.any():
        return None
    masked = np.where(feasible, delta, np.inf)
    u, a, b = np.unravel_index(int(np.argmin(masked)), masked.shape)
    return int(u), int(a), int(b), float(masked[u, a, b])


@st.composite
def integer_mass_states(draw):
    """Snapshot-like states: integer masses (weighted >= union, zeros and
    ties for the row maximum included), any base, k from 1."""
    k = draw(st.integers(min_value=1, max_value=8))
    num_units = draw(st.integers(min_value=0, max_value=24))
    frags = []
    for u in range(num_units):
        for w in sorted(draw(st.sets(st.integers(0, k - 1), max_size=k))):
            union = draw(st.integers(min_value=0, max_value=60))
            frags.append(Fragment(u, w, union, union + draw(st.integers(0, 40))))
    base = np.array(
        draw(st.lists(st.floats(0, 5000), min_size=k, max_size=k)), dtype=np.float64
    )
    delta = draw(st.sampled_from([0.001, 0.05, 0.25, 0.9]))
    return QcutState(num_units, k, frags, base, delta=delta)


class TestCandidateTensorMatchesReference:
    @given(integer_mass_states())
    @settings(max_examples=300, deadline=None)
    def test_same_tensors_and_same_best_move(self, state):
        delta, feasible = _candidate_tensor(state)
        want_delta, want_feasible = reference_candidate_tensor(state)
        assert delta.shape == want_delta.shape and delta.dtype == want_delta.dtype
        assert feasible.shape == want_feasible.shape and feasible.dtype == np.bool_
        assert np.array_equal(delta, want_delta)
        assert np.array_equal(feasible, want_feasible)
        assert best_successor(state) == reference_best_successor(state)

    @given(integer_mass_states())
    @settings(max_examples=50, deadline=None)
    def test_same_descent(self, state):
        """Move for move down to the local minimum: the tensors agree on
        every state the search passes through, not only the first."""
        ours, theirs = state.copy(), state.copy()
        for _ in range(100):
            move = best_successor(ours)
            assert move == reference_best_successor(theirs)
            if move is None or move[3] >= 0.0:
                break
            ours.apply_move(*move[:3])
            theirs.apply_move(*move[:3])
