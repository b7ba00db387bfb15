"""Tests for the MAPE controller (§3.4)."""

import numpy as np
import pytest

import repro.core.controller as controller_module
from reference_impls import reference_controller
from repro.core import Controller, ControllerConfig
from repro.errors import ControllerError


def make_config(**overrides):
    cfg = dict(
        mu=100.0,
        phi=0.7,
        delta=0.25,
        qcut_compute_time=1.0,
        ils_rounds=20,
        qcut_cooldown=5.0,
        min_queries_for_qcut=2,
        seed=0,
    )
    cfg.update(overrides)
    return ControllerConfig(**cfg)


def make_controller(**overrides):
    return Controller(4, make_config(**overrides))


def feed_scattered_queries(ctrl, assignment, n=4, per_query=8):
    """Simulate n queries each activating vertices spread over all workers."""
    rng = np.random.default_rng(1)
    v = 0
    for qid in range(n):
        ctrl.on_query_started(qid, float(qid))
        vertices = list(range(v, v + per_query))
        v += per_query
        ctrl.on_iteration(qid, 4, vertices, float(qid) + 0.5)
        ctrl.on_iteration(qid, 4, [], float(qid) + 0.6)


def feed_disjoint_queries(ctrl, n):
    """``n`` disjoint 8-vertex scopes over the round-robin assignment."""
    assignment = np.arange(64) % 4
    feed_scattered_queries(ctrl, assignment, n=n)
    return assignment


def feed_overlapping_queries(ctrl):
    """Six queries over 40 of the 64 vertices each: sum of unions 240."""
    for qid in range(6):
        ctrl.on_query_started(qid, float(qid))
        ctrl.on_iteration(qid, 4, list(range(4 * qid, 4 * qid + 40)), qid + 0.5)
    return np.arange(64) % 4


def feed_cut_free_skewed(ctrl):
    """Four disjoint 4-vertex scopes, all on worker 0: cost 0, the
    imbalance trigger at 2δ."""
    assignment = np.zeros(64, dtype=np.int64)
    assignment[16:] = np.arange(48) % 3 + 1
    for qid in range(4):
        ctrl.on_query_started(qid, 0.0)
        ctrl.on_iteration(qid, 1, list(range(4 * qid, 4 * qid + 4)), 0.5)
    return assignment


class TestTrigger:
    def test_no_trigger_without_queries(self):
        ctrl = make_controller()
        assert not ctrl.should_trigger_qcut(10.0)

    def test_triggers_on_low_locality(self):
        ctrl = make_controller()
        assignment = np.arange(64) % 4
        feed_scattered_queries(ctrl, assignment)
        assert ctrl.average_locality() < 0.7
        assert ctrl.should_trigger_qcut(10.0)

    def test_no_trigger_when_local(self):
        ctrl = make_controller()
        for qid in range(4):
            ctrl.on_query_started(qid, 0.0)
            ctrl.on_iteration(qid, 1, [qid], 0.5)
        assert not ctrl.should_trigger_qcut(10.0)

    def test_imbalance_trigger(self):
        """High workload skew triggers even at perfect locality (Domain case)."""
        ctrl = make_controller()
        # all queries hammer worker 0's vertices
        for qid in range(4):
            ctrl.on_query_started(qid, 0.0)
            ctrl.on_iteration(qid, 1, list(range(16)), 0.5)
        assignment = np.zeros(64, dtype=np.int64)
        assignment[16:] = np.arange(48) % 3 + 1
        assert ctrl.average_locality() == 1.0
        assert ctrl.should_trigger_qcut(10.0, assignment)

    def test_cooldown(self):
        ctrl = make_controller()
        assignment = np.arange(64) % 4
        feed_scattered_queries(ctrl, assignment)
        ctrl.begin_qcut(assignment, 10.0)
        ctrl.complete_qcut(11.0)
        assert not ctrl.should_trigger_qcut(12.0)  # inside cooldown
        assert ctrl.should_trigger_qcut(20.0)

    def test_no_double_begin(self):
        ctrl = make_controller()
        assignment = np.arange(64) % 4
        feed_scattered_queries(ctrl, assignment)
        ctrl.begin_qcut(assignment, 10.0)
        assert not ctrl.should_trigger_qcut(10.5)
        with pytest.raises(ControllerError):
            ctrl.begin_qcut(assignment, 11.0)


class TestQcutPlan:
    def test_plan_moves_reduce_cost(self):
        ctrl = make_controller()
        assignment = np.arange(64) % 4
        feed_scattered_queries(ctrl, assignment, n=6)
        duration = ctrl.begin_qcut(assignment, 10.0)
        assert duration == pytest.approx(1.0)
        plan = ctrl.complete_qcut(11.0)
        assert plan.cost_after <= plan.cost_before
        assert plan.moves  # scattered scopes => something to consolidate

    def test_moves_reference_scope_vertices(self):
        ctrl = make_controller()
        assignment = np.arange(64) % 4
        feed_scattered_queries(ctrl, assignment, n=4)
        ctrl.begin_qcut(assignment, 10.0)
        plan = ctrl.complete_qcut(11.0)
        tracked = set()
        for qid in ctrl.scopes.queries():
            tracked |= set(ctrl.scopes.scope_array(qid).tolist())
        for move in plan.moves:
            assert set(move.vertices.tolist()) <= tracked
            # src must match the assignment at snapshot time
            assert np.all(assignment[move.vertices] == move.src)

    def test_plan_annotates_involved_workers(self):
        """The plan's involved-worker annotation is exactly the moves'
        sources/destinations, and a subset of the ILS solution's
        relocation workers (empty-vertex fragments are dropped)."""
        ctrl = make_controller()
        assignment = np.arange(64) % 4
        feed_scattered_queries(ctrl, assignment, n=6)
        ctrl.begin_qcut(assignment, 10.0)
        plan = ctrl.complete_qcut(11.0)
        assert plan.moves
        expected = {w for m in plan.moves for w in (m.src, m.dst)}
        assert plan.involved_workers == frozenset(expected)
        assert plan.involved_workers <= plan.ils_result.best_state.relocation_workers()

    def test_complete_without_begin(self):
        ctrl = make_controller()
        with pytest.raises(ControllerError):
            ctrl.complete_qcut(1.0)

    def test_empty_window_gives_empty_plan(self):
        ctrl = make_controller(min_queries_for_qcut=0)
        assignment = np.zeros(8, dtype=np.int64)
        ctrl.begin_qcut(assignment, 0.0)
        plan = ctrl.complete_qcut(1.0)
        assert not plan
        assert plan.moved_vertices == 0

    def test_qcut_count_increments(self):
        ctrl = make_controller()
        assignment = np.arange(64) % 4
        feed_scattered_queries(ctrl, assignment)
        ctrl.begin_qcut(assignment, 0.0)
        ctrl.complete_qcut(1.0)
        assert ctrl.qcut_count == 1


class TestHeldSnapshot:
    """A snapshot whose fragments list more vertices than the graph has is
    held: no ILS, an empty plan, the back-off doubled."""

    def test_overlapping_scopes_are_held(self, monkeypatch):
        def no_ils(*_args, **_kwargs):
            raise AssertionError("a held snapshot must not run the ILS")

        monkeypatch.setattr(controller_module, "iterated_local_search", no_ils)
        ctrl = make_controller()
        assignment = feed_overlapping_queries(ctrl)
        ctrl.begin_qcut(assignment, 10.0)
        state, _vertices, held = ctrl._snapshot
        assert held and state.union.sum() == 240
        plan = ctrl.complete_qcut(11.0)
        assert not plan and plan.moved_vertices == 0 and plan.ils_result is None
        assert ctrl._backoff == 2.0
        assert ctrl.qcut_count == 1

    @pytest.mark.parametrize("n", [6, 8])
    def test_disjoint_scopes_still_plan(self, n):
        """Up to and including a sum of unions equal to |V| (n = 8: eight
        disjoint 8-vertex scopes cover the 64 vertices exactly)."""
        ctrl = make_controller()
        assignment = feed_disjoint_queries(ctrl, n)
        ctrl.begin_qcut(assignment, 10.0)
        state, _vertices, held = ctrl._snapshot
        assert not held and state.union.sum() == 8 * n
        plan = ctrl.complete_qcut(11.0)
        assert plan.moves and plan.ils_result is not None


class TestSaturation:
    """Only a snapshot taken while a full admission round was waiting may
    give up query-cut to buy balance."""

    @staticmethod
    def cut_free_skewed():
        ctrl = make_controller()
        assignment = feed_cut_free_skewed(ctrl)
        assert ctrl.should_trigger_qcut(10.0, assignment)
        return ctrl, assignment

    def test_unsaturated_snapshot_keeps_locality(self):
        ctrl, assignment = self.cut_free_skewed()
        ctrl.begin_qcut(assignment, 10.0, saturated=False)
        plan = ctrl.complete_qcut(11.0)
        assert not plan and plan.ils_result.best_state.relocated_fragments() == []
        assert ctrl._backoff == 2.0

    def test_saturated_snapshot_still_plans(self):
        ctrl, assignment = self.cut_free_skewed()
        ctrl.begin_qcut(assignment, 10.0, saturated=True)
        skew = ctrl._snapshot[0].max_imbalance()
        plan = ctrl.complete_qcut(11.0)
        assert plan.moves
        assert plan.ils_result.best_state.max_imbalance() < skew


class TestEstimateImbalance:
    def test_balanced_zero(self):
        ctrl = make_controller()
        assignment = np.arange(16) % 4
        assert ctrl.estimate_imbalance(assignment) == pytest.approx(0.0, abs=1e-9)

    def test_skewed_scopes_detected(self):
        ctrl = make_controller()
        ctrl.on_query_started(0, 0.0)
        ctrl.on_iteration(0, 1, list(range(8)), 0.5)
        assignment = np.zeros(16, dtype=np.int64)
        assignment[8:] = np.arange(8) % 3 + 1
        assert ctrl.estimate_imbalance(assignment) > 0.25


def canonical_plan(plan):
    """Order-insensitive MovePlan fingerprint."""
    return (
        plan.cost_before,
        plan.cost_after,
        sorted(
            (m.src, m.dst, tuple(sorted(m.vertices.tolist()))) for m in plan.moves
        ),
    )


BUILDERS = (("vectorized", Controller), ("reference", reference_controller))

#: case -> (feeds a controller and returns the assignment, saturated flag):
#: the snapshots ``TestHeldSnapshot`` and ``TestSaturation`` plan from
HOLD_AND_SATURATION_CASES = {
    "held": (feed_overlapping_queries, False),
    "disjoint-6": (lambda ctrl: feed_disjoint_queries(ctrl, 6), False),
    "disjoint-8": (lambda ctrl: feed_disjoint_queries(ctrl, 8), False),
    "unsaturated": (feed_cut_free_skewed, False),
    "saturated": (feed_cut_free_skewed, True),
}


class TestReferencePlannerEquivalence:
    """The library's Monitor/Plan path against the set-based oracle
    (``reference_impls.reference_controller``)."""

    @pytest.mark.parametrize("seed", range(5))
    def test_identical_move_plans(self, seed):
        rng = np.random.default_rng(seed)
        n, k, num_queries = 400, 4, 12
        assignment = rng.integers(0, k, size=n).astype(np.int64)
        plans = {}
        for backend, build in BUILDERS:
            ctrl = build(k, make_config(seed=5))
            feeder = np.random.default_rng(seed + 50)
            for qid in range(num_queries):
                ctrl.on_query_started(qid, float(qid))
                center = int(feeder.integers(0, n))
                scope = (center + feeder.integers(0, 80, size=30)) % n
                ctrl.on_iteration(qid, k, scope.tolist(), float(qid) + 0.5)
            ctrl.begin_qcut(assignment, 100.0)
            plans[backend] = ctrl.complete_qcut(101.0)
        assert canonical_plan(plans["vectorized"]) == canonical_plan(
            plans["reference"]
        )
        assert plans["vectorized"].moves, "equivalence instance planned no moves"

    @pytest.mark.parametrize("k, stride", [(4, 17), (1100, 40)])
    def test_identical_snapshots_fragment_for_fragment(self, k, stride):
        """The same fragments in the same order with the same vertices, on
        both sides of the snapshot's key width: the (unit, owner) group key
        is sorted as 16-bit integers while it fits (k = 4: overlapping
        scopes, 16 clusters, 64 key values) and as int64 beyond (k = 1100:
        disjoint scopes, 64 clusters x 1100 workers)."""
        n, num_queries, per_query = 4000, 64, 40
        assignment = np.random.default_rng(k).integers(0, k, size=n).astype(np.int64)
        snapshots = {}
        for backend, build in BUILDERS:
            ctrl = build(k, ControllerConfig(seed=3))
            for qid in range(num_queries):
                ctrl.on_query_started(qid, float(qid))
                scope = range(qid * stride, qid * stride + per_query)
                ctrl.on_iteration(qid, k, list(scope), float(qid) + 0.5)
            ctrl.begin_qcut(assignment, 100.0)
            snapshots[backend] = ctrl._snapshot
        state, vertices, _held = snapshots["vectorized"]
        want_state, want_vertices, _want_held = snapshots["reference"]
        assert (state.num_units * k > 2**16) == (k == 1100)
        assert list(state.fragment_sizes.items()) == list(want_state.fragment_sizes.items())
        assert state.base.tolist() == want_state.base.tolist()
        assert list(vertices) == list(want_vertices)
        for key, members in vertices.items():
            assert members.tolist() == sorted(want_vertices[key].tolist())

    @pytest.mark.parametrize("case", list(HOLD_AND_SATURATION_CASES))
    def test_hold_and_saturation_cases_match(self, case):
        """Held, just-not-held and cut-free skewed snapshots: the same hold
        decision, fragments, plan and back-off on both paths."""
        feed, saturated = HOLD_AND_SATURATION_CASES[case]
        outcomes = {}
        for backend, build in BUILDERS:
            ctrl = build(4, make_config())
            assignment = feed(ctrl)
            ctrl.begin_qcut(assignment, 10.0, saturated=saturated)
            state, vertices, held = ctrl._snapshot
            members = {key: sorted(v.tolist()) for key, v in vertices.items()}
            plan = ctrl.complete_qcut(11.0)
            outcomes[backend] = (
                held,
                list(state.fragment_sizes.items()),
                members,
                canonical_plan(plan),
                ctrl._backoff,
            )
        assert outcomes["vectorized"] == outcomes["reference"]

    def test_estimate_imbalance_matches_reference(self):
        assignment = np.zeros(32, dtype=np.int64)
        assignment[8:] = np.arange(24) % 3 + 1
        values = []
        for _backend, build in BUILDERS:
            ctrl = build(4, make_config())
            for qid in range(3):
                ctrl.on_query_started(qid, 0.0)
                ctrl.on_iteration(qid, 1, list(range(qid, qid + 10)), 0.5)
            values.append(ctrl.estimate_imbalance(assignment))
        assert values[0] == pytest.approx(values[1])


class TestLifecycle:
    def test_finish_evicts_stale(self):
        ctrl = make_controller(mu=1.0)
        ctrl.on_query_started(0, 0.0)
        ctrl.on_iteration(0, 1, [1, 2], 0.1)
        ctrl.on_query_finished(0, 0.2)
        # a much later finish triggers eviction of the stale query
        ctrl.on_query_started(1, 50.0)
        ctrl.on_query_finished(1, 50.1)
        assert 0 not in ctrl.monitor.tracked_queries()
        assert ctrl.scopes.scope_array(0).size == 0

    def test_worker_count_validation(self):
        with pytest.raises(ControllerError):
            Controller(0)

    def test_cap_eviction_drops_scopes(self):
        """Regression: cap-evicted queries must not leak scope arrays."""
        ctrl = make_controller(max_tracked_queries=4)
        for qid in range(50):
            ctrl.on_query_started(qid, float(qid))
            ctrl.on_iteration(qid, 1, [qid], float(qid) + 0.1)
            ctrl.on_query_finished(qid, float(qid) + 0.2)
        assert len(ctrl.monitor) == 4
        assert set(ctrl.scopes.queries()) == set(ctrl.monitor.tracked_queries())
