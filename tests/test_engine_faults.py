"""Fault-tolerance subsystem: injection, checkpoints, crash recovery.

The contract of the subsystem:

* **zero-fault identity** — an engine built with a no-op :class:`FaultPlan`
  is event-for-event identical to one built with no fault layer at all;
* **recovery identity** — a run with injected crashes returns, for every
  query, answers bit-identical to a fault-free run of the same
  configuration (same ``checkpoint_interval``): rollback + replay is
  exactly-once at the answer level;
* **reliable data plane** — message drop/duplication changes timing, never
  content;
* **composability** — recovery works under both repartition modes, all
  sync modes, both built-in admission policies and a custom one, and racing
  graph churn.
"""

import contextlib
import functools
import hashlib

import numpy as np
import pytest

from admission_policies import POLICIES, scheduler_for
from engine_harness import build_engine, digest, fingerprint, road_network
from reference_impls import generic_path
from repro.core.controller import Controller
from repro.engine.barriers import SyncMode
from repro.engine.checkpoint import QueryCheckpoint
from repro.engine.engine import EngineConfig, QGraphEngine
from repro.engine.kernels import VertexFunctionKernel
from repro.engine.query import QueryRuntime
from repro.errors import EngineError, SimulationError
from repro.graph import MutableDiGraph, grid_graph
from repro.graph.road_network import generate_road_network
from repro.simulation.cluster import make_cluster
from repro.simulation.faults import ControllerCrash, FaultPlan, WorkerCrash
from repro.workload.generator import PhaseSpec, WorkloadGenerator


_build_engine = functools.partial(build_engine, adaptive=False)


#: ``digest(fingerprint(...))`` of the crash runs below, recorded at the
#: commit before per-query state moved onto ``QueryRuntime`` (PR 15): that
#: move, and any later host-side-only change, must reproduce these runs
#: event for event.  A change that re-times events on purpose re-pins them.
_CRASH_FINGERPRINTS = {
    # HYBRID, GLOBAL_PER_QUERY and adaptive-partial were re-pinned when a
    # crash-tainted query began to wait at its barrier for the rollback
    # instead of rotating on: a held query takes no checkpoint of its lossy
    # iteration, so the HYBRID rollback goes back 13 iterations (was 10)
    SyncMode.HYBRID: "c972ed4b101474a8",
    SyncMode.GLOBAL_PER_QUERY: "e6d2cb72e7062dc6",
    # re-pinned when the queries started at one instant began to share the
    # first superstep (it ran query 0 alone), so 11 iterations roll back
    # (was 5); superstep tasks of a query whose frontier touches the dead
    # worker now dispatch too, and the one that lands on it taints the query.
    # Re-pinned when the starts of one instant began to queue one superstep
    # release between them: 1 245 events, not 1 275, the rest unchanged
    SyncMode.SHARED_BSP: "57323c5a7a24e310",
    # re-pinned before, when plans from snapshots taken with fewer than
    # max_parallel_queries queries waiting stopped trading cost for balance:
    # the post-recovery snapshot is such a one, and its zero-cost plan now
    # keeps the first zero-cost state (33 relocated fragments, imbalance
    # 0.40) rather than a better-balanced one (32, 0.22).  Re-pinned again
    # when a query held at a STOP stopped closing its iteration a second
    # time at START: 192 closes, not 216, the same makespan
    "adaptive-partial": "07e201fbd9829495",
}


def _run(rn, graph=None, kind="sssp", num_queries=32, churn_rate=0.0,
         churn_span=0.4, seed=5, **engine_kwargs):
    """Build, submit a workload, run to quiescence; return engine+results."""
    engine = _build_engine(rn.graph if graph is None else graph, **engine_kwargs)
    workload = WorkloadGenerator(rn, seed=seed).generate(
        [
            PhaseSpec(
                num_queries=num_queries,
                kind=kind,
                label="faults",
                churn_rate=churn_rate,
                churn_span=churn_span,
            )
        ]
    )
    workload.submit_all(engine)
    trace = engine.run()
    results = {
        q.query_id: engine.query_result(q.query_id) for q in workload.queries()
    }
    return engine, trace, results


def _assert_identical_results(faulty, clean):
    assert faulty.keys() == clean.keys()
    for qid in sorted(clean):
        assert faulty[qid] == clean[qid], f"query {qid} diverged"


# ----------------------------------------------------------------------
# fault-plan construction and validation
# ----------------------------------------------------------------------
class TestFaultPlanValidation:
    def test_negative_crash_time_rejected(self):
        with pytest.raises(SimulationError):
            WorkerCrash(time=-1.0, worker=0)

    def test_zero_downtime_rejected(self):
        with pytest.raises(SimulationError):
            WorkerCrash(time=0.1, worker=0, downtime=0.0)
        with pytest.raises(SimulationError):
            ControllerCrash(time=0.1, downtime=-1.0)

    def test_probability_bounds(self):
        with pytest.raises(SimulationError):
            FaultPlan(message_drop=1.0)
        with pytest.raises(SimulationError):
            FaultPlan(control_loss=-0.1)

    def test_validate_for_rejects_out_of_range_worker(self):
        plan = FaultPlan(crashes=(WorkerCrash(time=0.1, worker=7),))
        with pytest.raises(SimulationError, match="only 4 workers"):
            plan.validate_for(4)

    def test_validate_for_rejects_total_permanent_loss(self):
        plan = FaultPlan(
            crashes=tuple(WorkerCrash(time=0.1, worker=w) for w in range(2))
        )
        with pytest.raises(SimulationError, match="every worker"):
            plan.validate_for(2)

    def test_noop_detection(self):
        assert FaultPlan().is_noop()
        assert FaultPlan(message_drop=0.0, control_loss=0.0).is_noop()
        assert not FaultPlan(crashes=(WorkerCrash(time=0.1, worker=0),)).is_noop()
        assert not FaultPlan(message_drop=0.1).is_noop()

    def test_crashes_require_checkpointing(self):
        rn = road_network()
        plan = FaultPlan(crashes=(WorkerCrash(time=0.1, worker=0),))
        with pytest.raises(EngineError, match="checkpoint_interval"):
            _build_engine(rn.graph, faults=plan, checkpoint_interval=0)

    def test_generator_fault_plan_deterministic(self):
        rn = road_network()
        a = WorkloadGenerator(rn, seed=9).fault_plan(num_workers=4, crashes=3)
        b = WorkloadGenerator(rn, seed=9).fault_plan(num_workers=4, crashes=3)
        assert a == b
        assert len(a.crashes) == 3
        assert all(c.worker < 4 for c in a.crashes)
        times = [c.time for c in a.crashes]
        assert times == sorted(times)
        # a different seed draws a different schedule
        c = WorkloadGenerator(rn, seed=10).fault_plan(num_workers=4, crashes=3)
        assert a != c

    def test_generator_fault_plan_independent_of_workload_draws(self):
        rn = road_network()
        g1 = WorkloadGenerator(rn, seed=9)
        g1.generate([PhaseSpec(num_queries=8, kind="sssp")])
        g2 = WorkloadGenerator(rn, seed=9)
        assert g1.fault_plan(num_workers=4) == g2.fault_plan(num_workers=4)


# ----------------------------------------------------------------------
# checkpoint capture/restore
# ----------------------------------------------------------------------
def _holds_mail(qr):
    return any(len(box) for box in qr.mailboxes.values()) or any(
        len(box) for box in qr.next_mailboxes.values()
    )


def _advance_until(engine, ready=_holds_mail):
    """Advance ``engine`` one event timestamp at a time until some running
    query is ``ready`` (by default: holds undelivered messages); return
    those queries' runtimes."""
    runtimes = {}
    while not runtimes:
        next_time = engine.queue.peek_time()
        if next_time is None:
            break
        engine.run(until=next_time)
        runtimes = {
            qid: engine.runtimes[qid]
            for qid in sorted(engine.running)
            if ready(engine.runtimes[qid])
        }
    assert runtimes, "no query was ever mid-flight in the wanted state"
    return runtimes


def _mid_flight():
    """A checkpointing engine stopped while a query holds both vertex state
    and undelivered messages, and that query's runtime."""
    rn = road_network()
    engine = _build_engine(rn.graph, checkpoint_interval=2)
    WorkloadGenerator(rn, seed=5).generate(
        [PhaseSpec(num_queries=8, kind="sssp", label="faults")]
    ).submit_all(engine)
    runtimes = _advance_until(
        engine, lambda qr: _holds_mail(qr) and bool(qr.scope_mask.any())
    )
    return engine, runtimes[min(runtimes)]


class TestCheckpoint:
    def test_capture_restore_roundtrip(self):
        engine, qr = _mid_flight()
        assert qr.checkpoint is not None
        ck = QueryCheckpoint.capture(qr)
        saved_iter, saved_state = qr.iteration, qr.materialized_state()
        assert saved_state
        qr.iteration += 3
        qr.kstate = qr.kernel.make_state(engine.graph)
        qr.scope_mask[:] = False
        rolled = ck.restore(qr, engine.assignment)
        assert rolled == 3
        assert qr.iteration == saved_iter
        assert qr.materialized_state() == saved_state
        assert qr.involved == set(qr.mailboxes)

    def test_restore_rehomes_mailboxes(self):
        engine, qr = _mid_flight()
        ck = QueryCheckpoint.capture(qr)
        # move every vertex to worker 0: the restored boxes must follow
        assignment = np.zeros_like(engine.assignment)
        ck.restore(qr, assignment)
        assert set(qr.mailboxes) | set(qr.next_mailboxes) == {0}

    def test_restore_is_repeatable(self):
        """The checkpoint survives its own restore (copies go out)."""
        engine, qr = _mid_flight()
        ck = QueryCheckpoint.capture(qr)

        def messages():
            boxes = (*ck.mailboxes.values(), *ck.next_mailboxes.values())
            return sum(len(box) for box in boxes)

        before = messages()
        assert before > 0
        ck.restore(qr, engine.assignment)
        qr.kstate = qr.kernel.make_state(engine.graph)
        qr.mailboxes = {}
        ck.restore(qr, engine.assignment)
        assert messages() == before


# ----------------------------------------------------------------------
# zero-fault identity
# ----------------------------------------------------------------------
class TestZeroFaultIdentity:
    @pytest.mark.parametrize(
        "sync_mode",
        [SyncMode.HYBRID, SyncMode.GLOBAL_PER_QUERY, SyncMode.SHARED_BSP],
    )
    def test_noop_plan_is_event_for_event_identical(self, sync_mode):
        rn = road_network()
        e1, t1, r1 = _run(rn, sync_mode=sync_mode)
        e2, t2, r2 = _run(rn, sync_mode=sync_mode, faults=FaultPlan(seed=1))
        assert e2.faults is None  # normalized away at construction
        assert fingerprint(e1, t1) == fingerprint(e2, t2)
        _assert_identical_results(r2, r1)

    def test_checkpointing_alone_does_not_change_answers(self):
        rn = road_network()
        _, t1, r1 = _run(rn)
        _, t2, r2 = _run(rn, checkpoint_interval=2)
        assert t2.checkpoints_taken > 0
        assert t1.checkpoints_taken == 0
        _assert_identical_results(r2, r1)


# ----------------------------------------------------------------------
# runaway-event budget diagnostics
# ----------------------------------------------------------------------
class TestEventBudget:
    def test_budget_error_carries_engine_state(self):
        rn = road_network()
        engine = _build_engine(rn.graph, max_events=50)
        workload = WorkloadGenerator(rn, seed=5).generate(
            [PhaseSpec(num_queries=16, kind="sssp")]
        )
        workload.submit_all(engine)
        with pytest.raises(EngineError) as excinfo:
            engine.run()
        message = str(excinfo.value)
        for field in ("t=", "queue_len=", "running=", "outstanding_computes="):
            assert field in message


# ----------------------------------------------------------------------
# crash + recovery
# ----------------------------------------------------------------------
def _crash_plan(makespan, worker=1, at=0.3, downtime=None, **kwargs):
    return FaultPlan(
        seed=0,
        crashes=(
            WorkerCrash(time=at * makespan, worker=worker, downtime=downtime),
        ),
        **kwargs,
    )


class TestCrashRecovery:
    @pytest.mark.parametrize(
        "sync_mode",
        [SyncMode.HYBRID, SyncMode.GLOBAL_PER_QUERY, SyncMode.SHARED_BSP],
    )
    def test_recovery_identity_across_sync_modes(self, sync_mode):
        rn = road_network()
        _, t_clean, r_clean = _run(rn, sync_mode=sync_mode, checkpoint_interval=2)
        plan = _crash_plan(t_clean.makespan())
        engine, t_fault, r_fault = _run(
            rn, sync_mode=sync_mode, checkpoint_interval=2, faults=plan
        )
        assert t_fault.worker_crashes == 1
        assert len(t_fault.recoveries) == 1
        assert t_fault.recoveries[0].rehomed_vertices > 0
        _assert_identical_results(r_fault, r_clean)
        assert digest(fingerprint(engine, t_fault)) == _CRASH_FINGERPRINTS[sync_mode]

    def test_permanent_crash_finishes_on_survivors(self):
        rn = road_network()
        _, t_clean, r_clean = _run(rn, checkpoint_interval=2)
        plan = _crash_plan(t_clean.makespan(), downtime=None)
        engine, t_fault, r_fault = _run(rn, checkpoint_interval=2, faults=plan)
        assert t_fault.worker_recoveries == 0
        assert 1 not in set(engine.assignment)  # never repopulated
        _assert_identical_results(r_fault, r_clean)

    def test_transient_crash_rejoins(self):
        rn = road_network()
        _, t_clean, r_clean = _run(rn, checkpoint_interval=2)
        makespan = t_clean.makespan()
        plan = _crash_plan(makespan, downtime=0.2 * makespan)
        _, t_fault, r_fault = _run(rn, checkpoint_interval=2, faults=plan)
        assert t_fault.worker_crashes == 1
        assert t_fault.worker_recoveries == 1
        _assert_identical_results(r_fault, r_clean)

    @pytest.mark.parametrize(
        "sync_mode",
        [SyncMode.HYBRID, SyncMode.GLOBAL_PER_QUERY, SyncMode.SHARED_BSP],
    )
    def test_quick_rejoin_after_transient_crash(self, sync_mode):
        """A worker that rejoins before the heartbeat declares it dead:
        every query tainted by the crash waits at its barrier for the
        rollback instead of finishing.  Swept over crash time x downtime,
        both as fractions of the fault-free makespan (19 - 24 ms; every
        downtime but the last is far inside HEARTBEAT_TIMEOUT, 4 ms): each
        run finishes after one recovery with the fault-free answers."""
        rn = road_network()
        _, t_clean, r_clean = _run(rn, sync_mode=sync_mode, checkpoint_interval=2)
        makespan = t_clean.makespan()
        for at in (0.05, 0.1, 0.2, 0.3):
            for downtime in (0.005, 0.01, 0.02, 0.05):
                plan = _crash_plan(makespan, at=at, downtime=downtime * makespan)
                _, t_fault, r_fault = _run(
                    rn, sync_mode=sync_mode, checkpoint_interval=2, faults=plan
                )
                assert t_fault.worker_crashes == 1, (at, downtime)
                assert t_fault.worker_recoveries == 1, (at, downtime)
                assert len(t_fault.recoveries) == 1, (at, downtime)
                _assert_identical_results(r_fault, r_clean)

    def test_recovery_rolls_back_iterations(self):
        rn = road_network()
        _, t_clean, r_clean = _run(rn, checkpoint_interval=3)
        plan = _crash_plan(t_clean.makespan(), at=0.35)
        _, t_fault, r_fault = _run(rn, checkpoint_interval=3, faults=plan)
        record = t_fault.recoveries[0]
        assert record.queries_rolled_back > 0
        assert record.detection_latency > 0.0
        assert record.stall_duration > 0.0
        _assert_identical_results(r_fault, r_clean)

    def test_crash_during_adaptive_partial_repartitioning(self):
        rn = road_network()
        _, t_clean, r_clean = _run(
            rn, adaptive=True, repartition_mode="partial", checkpoint_interval=2
        )
        plan = _crash_plan(t_clean.makespan(), at=0.4)
        engine, t_fault, r_fault = _run(
            rn,
            adaptive=True,
            repartition_mode="partial",
            checkpoint_interval=2,
            faults=plan,
        )
        assert t_fault.worker_crashes == 1
        assert len(t_fault.recoveries) == 1
        _assert_identical_results(r_fault, r_clean)
        assert (
            digest(fingerprint(engine, t_fault))
            == _CRASH_FINGERPRINTS["adaptive-partial"]
        )

    def test_crash_racing_churn_flush(self):
        """Topology mutations land and flush before the crash; replay after
        rollback must see the same post-churn graph."""
        rn = road_network()
        # the churn span ends well before the crash fires, so both arms
        # replay on the same post-churn topology
        churn = dict(churn_rate=2500.0, churn_span=0.0015)
        clean_graph = MutableDiGraph.from_digraph(rn.graph)
        _, t_clean, r_clean = _run(
            rn, graph=clean_graph, checkpoint_interval=2, **churn
        )
        assert t_clean.churn_events, "churn process produced no events"
        plan = _crash_plan(t_clean.makespan(), at=0.6)
        faulty_graph = MutableDiGraph.from_digraph(rn.graph)
        _, t_fault, r_fault = _run(
            rn, graph=faulty_graph, checkpoint_interval=2, faults=plan, **churn
        )
        assert t_fault.worker_crashes == 1
        assert t_fault.churn_events
        _assert_identical_results(r_fault, r_clean)

    def test_two_staggered_crashes(self):
        rn = road_network()
        _, t_clean, r_clean = _run(rn, checkpoint_interval=2)
        makespan = t_clean.makespan()
        plan = FaultPlan(
            seed=0,
            crashes=(
                WorkerCrash(time=0.2 * makespan, worker=1, downtime=None),
                WorkerCrash(time=0.5 * makespan, worker=3, downtime=None),
            ),
        )
        _, t_fault, r_fault = _run(rn, checkpoint_interval=2, faults=plan)
        assert t_fault.worker_crashes == 2
        assert len(t_fault.recoveries) >= 1
        _assert_identical_results(r_fault, r_clean)


# ----------------------------------------------------------------------
# data-plane faults: drop / duplication stay content-identical
# ----------------------------------------------------------------------
class TestMessageFaults:
    def test_drop_and_duplicate_preserve_answers(self):
        rn = road_network()
        _, t_clean, r_clean = _run(rn)
        plan = FaultPlan(seed=0, message_drop=0.15, message_duplicate=0.1)
        _, t_fault, r_fault = _run(rn, faults=plan)
        assert t_fault.dropped_batches > 0
        assert t_fault.duplicated_batches > 0
        _assert_identical_results(r_fault, r_clean)

    def test_drops_delay_the_run(self):
        rn = road_network()
        _, t_clean, _ = _run(rn)
        plan = FaultPlan(seed=0, message_drop=0.3)
        _, t_fault, _ = _run(rn, faults=plan)
        assert t_fault.makespan() > t_clean.makespan()


# ----------------------------------------------------------------------
# control-plane faults
# ----------------------------------------------------------------------
class TestControlPlaneFaults:
    @pytest.mark.parametrize("scheduler", POLICIES)
    def test_control_loss_retries_and_preserves_answers(self, scheduler):
        rn = road_network()
        _, t_clean, r_clean = _run(rn, scheduler=scheduler_for(scheduler))
        plan = FaultPlan(seed=0, control_loss=0.2, report_loss=0.2)
        _, t_fault, r_fault = _run(
            rn, scheduler=scheduler_for(scheduler), faults=plan
        )
        assert t_fault.control_retries > 0
        assert len(t_fault.finished_queries()) == len(t_clean.finished_queries())
        _assert_identical_results(r_fault, r_clean)

    def test_controller_crash_degrades_gracefully(self):
        rn = road_network()
        _, t_clean, r_clean = _run(rn, adaptive=True)
        makespan = t_clean.makespan()
        plan = FaultPlan(
            seed=0,
            controller_crashes=(
                ControllerCrash(time=0.1 * makespan, downtime=0.5 * makespan),
            ),
        )
        _, t_fault, r_fault = _run(rn, adaptive=True, faults=plan)
        assert t_fault.controller_crashes == 1
        _assert_identical_results(r_fault, r_clean)


# ----------------------------------------------------------------------
# finish-path state release (regression for the finish-leak findings:
# a query's checkpoint, activation buffer and in-flight map survived its
# lifecycle)
# ----------------------------------------------------------------------
class TestFinishReleasesPerQueryState:
    def test_finished_queries_leave_no_per_query_engine_state(self):
        rn = road_network()
        engine, trace, results = _run(rn, num_queries=8, checkpoint_interval=2)
        # the per-query fields were populated during the run...
        assert trace.checkpoints_taken > 0
        finished = set(results)
        assert finished and not engine.running
        # ...and the finish path released every one of them.  A leaked
        # entry keeps dead checkpoints resident for the rest of a long
        # multi-tenant run, and recovery would "restore" queries that
        # already answered.
        for qid in sorted(finished):
            qr = engine.runtimes[qid]
            assert qr.checkpoint is None, qid
            assert qr.activated == [], qid
            assert qr.inflight == {}, qid

    def test_finished_runtime_keeps_only_its_answer(self):
        """All seven programs with checkpoints on: after ``run()`` a
        finished runtime holds no dense buffer and no working structure,
        and every answer is the one the engine gave before ``release()``
        existed (SHA-256 over ``repr``, recorded at the parent of PR 15)."""
        rn = _small_network()
        engine = _build_engine(rn.graph, checkpoint_interval=2)
        workload = WorkloadGenerator(rn, seed=5).generate(
            [
                PhaseSpec(num_queries=3, kind=kind, label=kind)
                for kind in _FIXED_POINT_KINDS
            ]
        )
        workload.submit_all(engine)
        trace = engine.run()
        assert trace.checkpoints_taken > 0
        assert not engine.running
        answers = hashlib.sha256()
        for query in workload.queries():
            qr = engine.runtimes[query.query_id]
            assert qr.finished
            held = {name: getattr(qr, name) for name in QueryRuntime.__slots__}
            assert held["kstate"] is None and held["checkpoint"] is None
            assert not any(isinstance(v, np.ndarray) for v in held.values())
            for name in (
                "mailboxes", "next_mailboxes", "inbox_ready",
                "pending_remote_inbound", "involved", "acked", "computed",
                "prior_participants", "agg_partials", "activated", "inflight",
                "agg_specs",
            ):
                assert not held[name], (query.query_id, name)
            answers.update(
                repr((query.query_id, engine.query_result(query.query_id))).encode()
            )
        assert answers.hexdigest() == (
            "4dfa7620eff912bb4ebe95bbb89916d9b42ca5ae42b48fcce47a908308dcd54e"
        )

    def test_recovery_after_finish_ignores_finished_queries(self):
        """A crash after queries finished must not roll them back."""
        rn = road_network()
        plan = FaultPlan(
            seed=0, crashes=(WorkerCrash(time=0.05, worker=2, downtime=0.2),)
        )
        _, t_clean, r_clean = _run(rn, num_queries=8, checkpoint_interval=2)
        engine, t_fault, r_fault = _run(
            rn, num_queries=8, checkpoint_interval=2, faults=plan
        )
        assert len(t_fault.recoveries) >= 1
        _assert_identical_results(r_fault, r_clean)
        assert all(engine.runtimes[qid].checkpoint is None for qid in r_fault)


# ----------------------------------------------------------------------
# recovery precondition (regression for the atomic-mutation finding:
# _do_recovery re-homed the assignment before validating the restore set)
# ----------------------------------------------------------------------
class TestRecoveryPrecondition:
    def test_missing_checkpoint_raises_before_any_mutation(self):
        rn = road_network()
        engine, _, results = _run(rn, num_queries=4, checkpoint_interval=2)
        qid = min(results)
        # resurrect a running query whose checkpoint is gone, with a dead
        # worker pending recovery — the pre-fix engine re-homed the
        # assignment first and only then discovered the missing checkpoint,
        # leaving mailboxes bucketed for owners the assignment no longer
        # named (the STATE_INVARIANT_GROUPS couple, torn)
        engine.running.add(qid)
        engine.runtimes[qid].checkpoint = None
        engine._dead_workers.add(1)
        engine._recovering = [(1, 0.9, 1.0)]
        before = engine.assignment.copy()
        with pytest.raises(EngineError, match="no checkpoint at recovery"):
            engine._do_recovery(1.0)
        assert np.array_equal(engine.assignment, before)


# ----------------------------------------------------------------------
# recovery charge: re-homed partitions reload over their new owner's
# controller link, one summed payload per destination
# ----------------------------------------------------------------------
class TestRecoveryCharge:
    NOW = 1.0

    def _recovered(self, kind, handled, still_down):
        """A 6 x 6 grid on 4 ``kind`` workers, 9 contiguous vertices each;
        ``handled`` are recovered in one ``_do_recovery`` call, of which
        ``still_down`` have not rejoined.  Returns the engine and the time of
        the ``global_start`` the recovery scheduled."""
        g = grid_graph(6, 6)
        assignment = np.repeat(np.arange(4, dtype=np.int64), 9)
        engine = QGraphEngine(
            g,
            make_cluster(kind, 4),
            assignment,
            controller=Controller(4),
            config=EngineConfig(adaptive=False),
        )
        engine._dead_workers.update(still_down)
        engine._recovering = [(w, self.NOW - 0.01, self.NOW) for w in handled]
        engine._stop_begin_time = self.NOW
        engine._do_recovery(self.NOW)
        event = engine.queue.pop()
        assert event.kind == "global_start"
        return engine, event.time

    def _expected_start(self, engine, counts):
        """``now`` + the slowest destination's reload of its summed payload."""
        stall = 0.0
        for dst, count in counts.items():
            link = engine.cluster.controller_link(dst)
            payload = count * engine.config.vertex_state_bytes
            stall = max(stall, link.latency + payload / link.bandwidth)
        return self.NOW + stall

    @pytest.mark.parametrize("kind", ["M2", "C1"])
    def test_two_dead_workers_sum_onto_each_destination(self, kind):
        engine, start = self._recovered(kind, handled=(1, 2), still_down=(1, 2))
        # ids 9..26 go round-robin to the survivors {0, 3} in ascending order
        expected = np.repeat(np.arange(4, dtype=np.int64), 9)
        expected[9:27] = np.tile([0, 3], 9)
        assert engine.assignment.tolist() == expected.tolist()
        record = engine.trace.recoveries[0]
        assert record.workers == (1, 2)
        assert record.rehomed_vertices == 18
        # each survivor reloads 9 vertices: 5 of worker 1's and 4 of worker
        # 2's onto worker 0, 4 and 5 onto worker 3.  The payloads of both
        # dead workers add up on the one controller link they share
        assert start == pytest.approx(
            self._expected_start(engine, {0: 9, 3: 9}), rel=1e-12
        )
        split = self._expected_start(engine, {0: 5, 3: 5})
        assert start > split
        assert record.stall_duration == pytest.approx(start - self.NOW, rel=1e-12)

    @pytest.mark.parametrize("kind", ["M2", "C1"])
    def test_rejoined_worker_keeps_its_vertices_and_receives_others(self, kind):
        engine, start = self._recovered(kind, handled=(1, 2), still_down=(1,))
        # worker 2 rejoined before the barrier: only worker 1's ids 9..17
        # move, round-robin over {0, 2, 3}
        expected = np.repeat(np.arange(4, dtype=np.int64), 9)
        expected[9:18] = np.tile([0, 2, 3], 3)
        assert engine.assignment.tolist() == expected.tolist()
        record = engine.trace.recoveries[0]
        assert record.workers == (1, 2)
        assert record.rehomed_vertices == 9
        assert start == pytest.approx(
            self._expected_start(engine, {0: 3, 2: 3, 3: 3}), rel=1e-12
        )


# ----------------------------------------------------------------------
# capture -> restore -> capture is a fixed point
# ----------------------------------------------------------------------
_FIXED_POINT_KINDS = [
    "sssp", "poi", "bfs", "khop", "reachability", "pagerank_local", "wcc_local",
]

_small_network_cache = []


def _small_network():
    """A smaller road network shared across the fixed-point matrix."""
    if not _small_network_cache:
        _small_network_cache.append(
            generate_road_network(
                num_cities=3,
                num_urban_vertices=400,
                seed=13,
                region_size=60.0,
                zipf_exponent=0.5,
            )
        )
    return _small_network_cache[0]


def _mailbox_pairs(boxes):
    """Mailboxes as a sorted multiset of ``(vertex, message)`` pairs.

    Worker homing is exactly what a restore onto a different assignment is
    allowed to change; message content is not.  Each vertex lives in at
    most one box per generation, so rebucketing merges nothing and the
    pair multiset must survive bit-for-bit.
    """
    pairs = []
    for box in boxes.values():
        vertices, messages = box.concat()
        pairs.extend(zip(vertices.tolist(), messages.tolist()))
    return sorted(pairs, key=lambda p: (p[0], repr(p[1])))


def _deep_equal(a, b):
    if a is None or b is None:
        return a is b
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(np.asarray(a), np.asarray(b))
    if isinstance(a, dict):
        return (
            isinstance(b, dict)
            and a.keys() == b.keys()
            and all(_deep_equal(a[key], b[key]) for key in a)
        )
    if isinstance(a, (list, tuple)):
        return (
            type(a) is type(b)
            and len(a) == len(b)
            and all(_deep_equal(x, y) for x, y in zip(a, b))
        )
    return bool(a == b)


class TestCheckpointRestoreFixedPoint:
    """capture . restore . capture == capture, on a *permuted* assignment.

    The property behind recovery identity: a checkpoint restored onto a
    different vertex assignment (the post-crash re-homing) carries exactly
    the state it captured — nothing dropped, nothing invented, only the
    worker bucketing changed.  Checked across all seven built-in programs,
    both execution paths, and all three sync modes.
    """

    @pytest.mark.parametrize(
        "sync_mode",
        [SyncMode.HYBRID, SyncMode.GLOBAL_PER_QUERY, SyncMode.SHARED_BSP],
    )
    @pytest.mark.parametrize("generic", [False, True], ids=["kernels", "generic"])
    @pytest.mark.parametrize("kind", _FIXED_POINT_KINDS)
    def test_capture_restore_capture_identity(self, kind, generic, sync_mode):
        rn = _small_network()
        engine = _build_engine(rn.graph, checkpoint_interval=2, sync_mode=sync_mode)
        workload = WorkloadGenerator(rn, seed=5).generate(
            [PhaseSpec(num_queries=4, kind=kind, label="fixed-point")]
        )
        workload.submit_all(engine)
        # stop the simulation mid-flight, so the captured state exercises
        # the mailbox re-homing path
        with generic_path() if generic else contextlib.nullcontext():
            runtimes = _advance_until(engine)
        assert all(
            isinstance(qr.kernel, VertexFunctionKernel) == generic
            for qr in runtimes.values()
        )
        permuted = (engine.assignment + 1) % engine.cluster.num_workers
        assert not np.array_equal(permuted, engine.assignment)
        for qid, qr in sorted(runtimes.items()):
            scope = qr.scope_vertices()
            ck1 = QueryCheckpoint.capture(qr)
            # wipe the live state and scope: the restore has to bring them
            # back, not find them still lying there
            qr.kstate = qr.kernel.make_state(engine.graph)
            qr.scope_mask[:] = False
            ck1.restore(qr, permuted)
            ck2 = QueryCheckpoint.capture(qr)
            label = f"{kind}/q{qid}"
            assert ck2.iteration == ck1.iteration, label
            assert _deep_equal(
                ck2.pending_remote_inbound, ck1.pending_remote_inbound
            ), label
            assert _deep_equal(ck2.agg_committed, ck1.agg_committed), label
            assert np.array_equal(qr.scope_vertices(), scope), label
            assert _deep_equal(ck2.scope_mask, ck1.scope_mask), label
            assert _deep_equal(ck2.kstate, ck1.kstate), label
            assert _mailbox_pairs(ck2.mailboxes) == _mailbox_pairs(
                ck1.mailboxes
            ), label
            assert _mailbox_pairs(ck2.next_mailboxes) == _mailbox_pairs(
                ck1.next_mailboxes
            ), label
            # and the restore really re-homed: every box now lives on the
            # worker the permuted assignment names
            for worker, box in qr.mailboxes.items():
                vertices, _ = box.concat()
                assert set(permuted[vertices].tolist()) <= {worker}, label
