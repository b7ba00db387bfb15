"""Differential tests for the incremental Q-cut planning state.

``QcutState`` maintains its per-worker masses under ``apply_move`` and
``perturb`` runs its rebalance walk on scalars with a move journal.  Both
are identity transformations of the from-scratch formulas, which survive
here as oracles: every maintained quantity must be ``==`` (exact, not
approx) its from-scratch value, and ``perturb`` must return the state — and
leave the random stream where — the original copy-per-improvement walk did.
The original drew from ``Generator.integers`` and still does here; the
library draws the same values from a ``WordStream`` over the same PCG64
stream.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Fragment, QcutState, WordStream, perturb


# ----------------------------------------------------------------------
# from-scratch oracles (the formulas QcutState used before it went
# incremental, computed from the dense matrices alone)
# ----------------------------------------------------------------------
def scratch_loads(state):
    vertex_counts = state.base + state.union.sum(axis=0)
    return (vertex_counts + state.weighted.sum(axis=0)) / 2.0


def scratch_imbalance(state):
    loads = scratch_loads(state)
    top = loads.max() - loads.min()
    bottom = loads.max()
    return float(top / bottom) if bottom > 0 else 0.0


def scratch_cost(state):
    if state.num_units == 0:
        return 0.0
    return float((state.weighted.sum(axis=1) - state.weighted.max(axis=1)).sum())


def assert_matches_scratch(state):
    assert np.array_equal(state.loads(), scratch_loads(state))
    assert np.array_equal(state.scope_mass(), state.weighted.sum(axis=0))
    assert np.array_equal(state.vertex_counts(), state.base + state.union.sum(axis=0))
    assert state.max_imbalance() == scratch_imbalance(state)
    assert state.is_balanced() == (scratch_imbalance(state) < state.delta)
    assert state.cost() == scratch_cost(state)


def reference_perturb(state, rng, max_rebalance_moves=200):
    """The Figure 8 perturbation as first written: every probe re-derives
    the loads from the matrices, every improvement deep-copies the state."""
    return reference_walk(state, rng, max_rebalance_moves)[0]


def reference_walk(state, rng, max_rebalance_moves=200):
    """``(result, moves walked, moves kept)`` of the original perturbation."""
    out = state.copy()
    k = out.num_workers
    if k < 2 or out.num_units == 0:
        return out, 0, 0
    split = np.flatnonzero((out.weighted > 0).sum(axis=1) >= 2)
    if split.size == 0:
        unit = int(rng.integers(0, out.num_units))
        sources = np.flatnonzero(out.weighted[unit] > 0)
        if sources.size == 0:
            return out, 0, 0
        src = int(sources[0])
        dst_choices = [w for w in range(k) if w != src]
        dst = int(dst_choices[int(rng.integers(0, len(dst_choices)))])
        out.apply_move(unit, src, dst)
    else:
        unit = int(split[int(rng.integers(0, split.size))])
        target = int(np.argmax(out.weighted[unit]))
        for src in np.flatnonzero(out.weighted[unit] > 0):
            if int(src) != target:
                out.apply_move(unit, int(src), target)

    best = out.copy()
    best_imbalance = scratch_imbalance(best)
    walked = kept = 0
    for _ in range(max_rebalance_moves):
        if scratch_imbalance(out) < out.delta:
            return out, walked, walked
        loads = scratch_loads(out)
        w_max = int(np.argmax(loads))
        w_min = int(np.argmin(loads))
        movable = np.flatnonzero(out.weighted[:, w_max] > 0)
        if movable.size == 0:
            break
        choice = int(movable[int(rng.integers(0, movable.size))])
        out.apply_move(choice, w_max, w_min)
        walked += 1
        imbalance = scratch_imbalance(out)
        if imbalance < best_imbalance:
            best = out.copy()
            best_imbalance = imbalance
            kept = walked
    return best, walked, kept


def observable(state):
    return (
        state.weighted.tolist(),
        state.union.tolist(),
        sorted(state.placement.items()),
    )


def streams(seed):
    """The library's word stream and the oracle's generator, same seed."""
    return WordStream(np.random.PCG64(seed)), np.random.default_rng(seed)


def assert_same_stream_position(words, rng):
    """Both sides took the same 32-bit words off the PCG64 stream: their
    next draws agree (one word more or less on either side shifts all)."""
    bounds = (2**31, 3, 2**31 - 1, 1000)
    assert [words.below(n) for n in bounds] == [int(rng.integers(0, n)) for n in bounds]


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def integer_mass_states(draw, min_workers=1):
    k = draw(st.integers(min_value=min_workers, max_value=8))
    num_units = draw(st.integers(min_value=0, max_value=32))
    frags = []
    for u in range(num_units):
        workers = draw(st.sets(st.integers(0, k - 1), max_size=k))
        for w in sorted(workers):
            union = draw(st.integers(min_value=0, max_value=400))
            extra = draw(st.integers(min_value=0, max_value=400))
            frags.append(Fragment(u, w, union, union + extra))
    base = np.array(
        draw(st.lists(st.integers(0, 5000), min_size=k, max_size=k)), dtype=np.float64
    )
    delta = draw(st.sampled_from([0.001, 0.02, 0.1, 0.25, 0.5, 0.9]))
    return QcutState(num_units, k, frags, base, delta=delta)


def legal_moves(state):
    return [
        (u, a, b)
        for u, a in zip(*np.nonzero(state.weighted > 0))
        for b in range(state.num_workers)
        if b != a
    ]


# ----------------------------------------------------------------------
# (a) maintained values == from-scratch values, move by move
# ----------------------------------------------------------------------
class TestMaintainedValuesAreExact:
    @given(integer_mass_states(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_legal_move_sequences(self, state, data):
        assert_matches_scratch(state)
        for _ in range(data.draw(st.integers(0, 40), label="moves")):
            moves = legal_moves(state)
            if not moves:
                break
            u, a, b = moves[data.draw(st.integers(0, len(moves) - 1), label="move")]
            state.apply_move(int(u), int(a), int(b))
            assert_matches_scratch(state)
            clone = state.copy()
            assert_matches_scratch(clone)
            assert observable(clone) == observable(state)

    @given(integer_mass_states(min_workers=2), st.data())
    @settings(max_examples=50, deadline=None)
    def test_clone_and_original_stay_independent(self, state, data):
        moves = legal_moves(state)
        if not moves:
            return
        before = (observable(state), state.loads().tolist(), state.cost())
        clone = state.copy()
        u, a, b = moves[data.draw(st.integers(0, len(moves) - 1))]
        clone.apply_move(int(u), int(a), int(b))
        assert (observable(state), state.loads().tolist(), state.cost()) == before
        assert_matches_scratch(state)
        assert_matches_scratch(clone)

    def test_values_read_before_a_move_are_not_stale_after_it(self):
        frags = [Fragment(0, 0, 10, 14), Fragment(0, 1, 6, 8), Fragment(1, 2, 12, 12)]
        state = QcutState(2, 3, frags, np.array([100.0, 100.0, 100.0]), delta=0.1)
        assert state.cost() == 8.0 and state.is_balanced()
        state.apply_move(1, 2, 0)
        assert state.cost() == 8.0 and not state.is_balanced()
        state.apply_move(0, 1, 0)
        assert state.cost() == 0.0
        assert_matches_scratch(state)

    def test_fractional_base_is_still_exact(self):
        """Only the scope masses need to be integers: the loads are derived
        from the maintained column sums by the from-scratch formula."""
        frags = [Fragment(u, w, 3 + u, 7 + u + w) for u in range(5) for w in range(3)]
        state = QcutState(5, 3, frags, np.array([0.1, 1 / 3, 2.7]), delta=0.25)
        for u, a, b in [(0, 0, 1), (3, 2, 0), (0, 1, 2), (4, 0, 2), (3, 0, 1)]:
            state.apply_move(u, a, b)
            assert_matches_scratch(state)


# ----------------------------------------------------------------------
# perturb == the original copy-per-improvement perturb
# ----------------------------------------------------------------------
class TestPerturbMatchesReference:
    @given(integer_mass_states(), st.integers(0, 2**31 - 1), st.sampled_from([0, 1, 7, 200]))
    @settings(max_examples=200, deadline=None)
    def test_same_state_and_same_stream_position(self, state, seed, max_moves):
        before = observable(state)
        words, rng_ref = streams(seed)
        got = perturb(state, words, max_moves)
        want = reference_perturb(state, rng_ref, max_moves)
        assert observable(got) == observable(want)
        assert_same_stream_position(words, rng_ref)
        assert_matches_scratch(got)
        assert observable(state) == before  # the incumbent is never touched


# ----------------------------------------------------------------------
# (c) the journal's two unhappy endings
# ----------------------------------------------------------------------
def _unbalanceable_state():
    """Unit 0 outweighs everything else put together and delta is tiny: the
    walk shuffles mass between the extremes until its move cap."""
    frags = [Fragment(0, w, 300 + 37 * w, 500 + 41 * w) for w in range(4)]
    frags += [Fragment(u, u % 4, 4 + u, 5 + 2 * u) for u in range(1, 9)]
    frags += [Fragment(u, (u + 1) % 4, 3, 3 + u) for u in range(1, 9)]
    return QcutState(9, 4, frags, np.array([20.0, 23.0, 29.0, 31.0]), delta=0.001)


class TestJournalReplay:
    def test_walk_ending_on_a_non_best_state_returns_the_best_prefix(self):
        state = _unbalanceable_state()
        before = observable(state)
        masses = (state.loads().tolist(), state.cost(), state.max_imbalance())
        for seed in range(20):
            words, rng_ref = streams(seed)
            got = perturb(state, words)
            want, walked, kept = reference_walk(state, rng_ref)
            # ran to the cap and ended away from the best state it saw
            assert walked == 200 and kept < walked
            assert observable(got) == observable(want)
            assert_same_stream_position(words, rng_ref)
            assert not got.is_balanced()
            assert_matches_scratch(got)
            assert observable(state) == before
            assert (state.loads().tolist(), state.cost(), state.max_imbalance()) == masses

    def test_movable_running_dry_ends_the_walk(self):
        # after step II worker 1 holds nothing, yet base makes it the
        # maximally loaded worker: there is no scope to move off it
        frags = [Fragment(0, 0, 30, 30), Fragment(0, 1, 10, 10)]
        state = QcutState(1, 2, frags, np.array([0.0, 500.0]), delta=0.05)
        before = observable(state)
        words, rng_ref = streams(3)
        got = perturb(state, words)
        want, walked, kept = reference_walk(state, rng_ref)
        assert (walked, kept) == (0, 0)  # broke out before the first move
        assert observable(got) == observable(want)
        assert got.weighted.tolist() == [[40.0, 0.0]]
        assert not got.is_balanced()
        assert words.consumed == 0  # the one split unit is picked without a draw
        assert_same_stream_position(words, rng_ref)
        assert observable(state) == before
        assert_matches_scratch(state)

    @pytest.mark.parametrize("max_moves", [0, 1, 2, 3, 5, 50])
    def test_every_walk_length_agrees_with_the_reference(self, max_moves):
        state = _unbalanceable_state()
        for seed in range(5):
            words, rng_ref = streams(seed)
            got = perturb(state, words, max_moves)
            want = reference_perturb(state, rng_ref, max_moves)
            assert observable(got) == observable(want)
            assert_same_stream_position(words, rng_ref)
