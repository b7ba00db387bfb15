"""Tests for the Figure 8 perturbation subroutine."""

import numpy as np
import pytest

from repro.core import Fragment, QcutState, WordStream, perturb


def stream(seed):
    return WordStream(np.random.PCG64(seed))


def split_state(delta=0.5):
    frags = [
        Fragment(0, 0, 10, 10),
        Fragment(0, 1, 20, 20),
        Fragment(0, 2, 5, 5),
        Fragment(1, 2, 15, 15),
    ]
    return QcutState(2, 3, frags, np.array([200.0] * 3), delta=delta)


class TestPerturb:
    def test_input_state_untouched(self):
        st = split_state()
        snapshot = st.weighted.copy()
        perturb(st, stream(0))
        assert np.array_equal(st.weighted, snapshot)

    def test_fuses_a_split_unit(self):
        st = split_state()
        out = perturb(st, stream(1))
        # unit 0 was the only split unit; afterwards it occupies one worker
        assert (out.weighted[0] > 0).sum() == 1

    def test_fusion_targets_largest_scope_worker(self):
        """Step II: move to the worker with the largest local scope (w1)."""
        st = split_state(delta=5.0)  # huge delta: no rebalancing kicks in
        out = perturb(st, stream(2))
        assert out.weighted[0, 1] == pytest.approx(35.0)

    def test_mass_conserved(self):
        st = split_state()
        out = perturb(st, stream(3))
        assert out.weighted.sum() == pytest.approx(st.weighted.sum())
        assert out.union.sum() == pytest.approx(st.union.sum())

    def test_rebalances_when_needed(self):
        # small base => scope mass dominates; fusion will unbalance, step III
        # must move other mass away (or at least not leave it worse than the
        # raw fusion)
        frags = [Fragment(0, w, 30, 30) for w in range(3)] + [
            Fragment(1, 0, 30, 30),
            Fragment(2, 1, 30, 30),
            Fragment(3, 2, 30, 30),
        ]
        st = QcutState(4, 3, frags, np.array([10.0] * 3), delta=0.4)
        out = perturb(st, stream(4))
        raw = st.copy()
        target = int(np.argmax(raw.weighted[0]))
        for src in np.flatnonzero(raw.weighted[0] > 0):
            if int(src) != target:
                raw.apply_move(0, int(src), target)
        assert out.max_imbalance() <= raw.max_imbalance() + 1e-9

    def test_perfect_locality_still_explores(self):
        frags = [Fragment(0, 0, 10, 10), Fragment(1, 1, 10, 10)]
        st = QcutState(2, 2, frags, np.array([100.0, 100.0]), delta=0.9)
        assert st.cost() == 0.0
        out = perturb(st, stream(5))
        # a nudge happened: some unit changed worker
        assert not np.array_equal(out.weighted, st.weighted)

    def test_single_worker_noop(self):
        frags = [Fragment(0, 0, 10, 10)]
        st = QcutState(1, 1, frags, np.array([100.0]))
        out = perturb(st, stream(6))
        assert np.array_equal(out.weighted, st.weighted)

    def test_deterministic_given_rng(self):
        st = split_state()
        a = perturb(st, stream(42))
        b = perturb(st, stream(42))
        assert np.array_equal(a.weighted, b.weighted)
