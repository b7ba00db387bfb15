"""Simulation sanitizer: enablement, overhead-free identity, fault injection.

The point of a sanitizer is that it *catches* corruption, so every invariant
in the catalog gets a fault-injection test: we break the engine state the
way a real bug would (drop a migrated message, mutate a cached CSR view,
desync a barrier epoch, compute on a halted worker, leak a dead vertex into
the scope store, shrink a dense buffer) and assert the corresponding
:class:`SanitizerError` fires with the right invariant name.  Clean runs
must be event-for-event identical with the sanitizer on and off.
"""

import functools

import numpy as np
import pytest

from engine_harness import build_engine, fingerprint, road_network
from repro.engine.barriers import SyncMode
from repro.engine.kernels import ArrayMailbox
from repro.engine.query import Query, QueryRuntime
from repro.engine.sanitizer import (
    ENV_FLAG,
    SanitizerError,
    SimulationSanitizer,
    sanitizer_enabled,
)
from repro.graph import GraphDelta, MutableDiGraph, grid_graph
from repro.queries.sssp import SsspProgram
from repro.workload.generator import PhaseSpec, WorkloadGenerator


_build_engine = functools.partial(build_engine, sanitizer=True)


def _workload(rn, num_queries=48, **phase_kwargs):
    return WorkloadGenerator(rn, seed=5).generate(
        [PhaseSpec(num_queries=num_queries, kind="sssp", label="san", **phase_kwargs)]
    )


def _seeded_runtime(engine, query_id=900, start=0):
    """A real kernel-backed QueryRuntime registered on the engine."""
    qr = QueryRuntime(Query(query_id, SsspProgram(start=start), (start,)), engine.graph)
    engine.runtimes[query_id] = qr
    engine.running.add(query_id)
    return qr


# ----------------------------------------------------------------------
# enablement: config knob x REPRO_SANITIZER environment switch
# ----------------------------------------------------------------------
class TestEnablement:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv(ENV_FLAG, raising=False)
        engine = _build_engine(grid_graph(6, 6), k=2, sanitizer=None)
        assert engine.sanitizer is None

    def test_config_true_enables(self, monkeypatch):
        monkeypatch.delenv(ENV_FLAG, raising=False)
        engine = _build_engine(grid_graph(6, 6), k=2, sanitizer=True)
        assert isinstance(engine.sanitizer, SimulationSanitizer)

    def test_env_enables_unset_config(self, monkeypatch):
        monkeypatch.setenv(ENV_FLAG, "1")
        engine = _build_engine(grid_graph(6, 6), k=2, sanitizer=None)
        assert isinstance(engine.sanitizer, SimulationSanitizer)

    def test_config_false_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_FLAG, "1")
        engine = _build_engine(grid_graph(6, 6), k=2, sanitizer=False)
        assert engine.sanitizer is None

    def test_env_spellings(self, monkeypatch):
        for value in ("", "0", "false", "off"):
            monkeypatch.setenv(ENV_FLAG, value)
            assert not sanitizer_enabled(None)
        for value in ("1", "true", "yes", "on"):
            monkeypatch.setenv(ENV_FLAG, value)
            assert sanitizer_enabled(None)
        assert sanitizer_enabled(True)
        assert not sanitizer_enabled(False)


# ----------------------------------------------------------------------
# clean runs: sanitized == unsanitized, and the hooks actually fire
# ----------------------------------------------------------------------
class TestCleanRunIdentity:
    @pytest.mark.parametrize(
        "sync_mode", [SyncMode.HYBRID, SyncMode.SHARED_BSP]
    )
    def test_sanitized_run_is_identical(self, sync_mode):
        rn = road_network()
        runs = []
        for sanitizer in (False, True):
            engine = _build_engine(rn.graph, sanitizer=sanitizer, sync_mode=sync_mode)
            workload = _workload(rn)
            workload.submit_all(engine)
            trace = engine.run()
            results = {
                q.query_id: engine.query_result(q.query_id)
                for q in workload.queries()
            }
            runs.append((engine, fingerprint(engine, trace), results, trace))
        (plain, fp_plain, res_plain, _), (san, fp_san, res_san, trace_san) = runs
        assert fp_plain == fp_san
        assert res_plain == res_san
        # the invariants were actually exercised, including the migration
        # checks (this workload repartitions under the adaptive controller)
        assert san.sanitizer is not None
        assert san.sanitizer.checks_performed > 0
        assert trace_san.repartitions

    def test_sanitized_churn_run_is_identical(self):
        rn = road_network()
        runs = []
        for sanitizer in (False, True):
            graph = MutableDiGraph.from_digraph(rn.graph)
            engine = _build_engine(graph, sanitizer=sanitizer)
            workload = _workload(rn, churn_rate=60.0, churn_span=0.4)
            workload.submit_all(engine)
            trace = engine.run()
            runs.append((engine, fingerprint(engine, trace), trace))
        (_, fp_plain, _), (san, fp_san, trace_san) = runs
        assert fp_plain == fp_san
        assert trace_san.churn_events  # on_graph_flush hooks were exercised
        assert san.sanitizer.checks_performed > 0


# ----------------------------------------------------------------------
# fault injection: every invariant break must be detected
# ----------------------------------------------------------------------
class TestCsrIntegrity:
    def test_mutated_cached_view_detected(self):
        engine = _build_engine(grid_graph(8, 8), k=2)
        engine.graph.csr().weights[0] += 1.0  # the bug csr-mutation lints for
        with pytest.raises(SanitizerError) as err:
            engine.sanitizer.check_csr_integrity(0.5)
        assert err.value.invariant == "csr-integrity"
        assert err.value.time == 0.5

    def test_untouched_view_passes(self):
        engine = _build_engine(grid_graph(8, 8), k=2)
        engine.sanitizer.check_csr_integrity(0.0)  # does not raise
        assert engine.sanitizer.checks_performed == 1

    def test_detected_on_the_flush_path(self):
        """End-to-end: corruption surfaces at the next delta flush in run()."""
        graph = MutableDiGraph.from_digraph(grid_graph(8, 8))
        engine = _build_engine(graph, k=2)
        engine.graph.csr().weights[0] += 1.0
        engine.submit_update(GraphDelta(delete_edges=[(0, 1)]), 0.01)
        with pytest.raises(SanitizerError, match="csr-integrity"):
            engine.run()

    def test_legitimate_flush_rebaselines(self):
        graph = MutableDiGraph.from_digraph(grid_graph(8, 8))
        engine = _build_engine(graph, k=2)
        engine.submit_update(GraphDelta(delete_edges=[(0, 1)]), 0.01)
        engine.run()
        engine.sanitizer.check_csr_integrity(1.0)  # re-baselined, no raise


class TestEpochMonotonicity:
    def test_desynced_epoch_detected(self):
        engine = _build_engine(grid_graph(6, 6), k=2)
        san = engine.sanitizer
        san.observe_epoch(3, 1, 0.1)
        san.observe_epoch(3, 2, 0.2)
        with pytest.raises(SanitizerError) as err:
            san.observe_epoch(3, 1, 0.3)
        assert err.value.invariant == "epoch-monotonicity"
        assert err.value.query_id == 3
        assert err.value.details == {"last_seen": 2, "observed": 1}

    def test_equal_epoch_allowed(self):
        """Re-observing the same epoch (multiple acks per barrier) is fine."""
        san = _build_engine(grid_graph(6, 6), k=2).sanitizer
        san.observe_epoch(3, 5, 0.1)
        san.observe_epoch(3, 5, 0.2)

    def test_finished_query_resets_tracking(self):
        """Query ids can be reused after a finish without tripping the check."""
        san = _build_engine(grid_graph(6, 6), k=2).sanitizer
        san.observe_epoch(3, 7, 0.1)
        san.on_query_finished(3)
        san.observe_epoch(3, 0, 0.2)  # fresh query, fresh epoch counter


class TestHaltedCompute:
    def test_compute_during_global_stop_detected(self):
        engine = _build_engine(grid_graph(6, 6), k=2)
        engine.paused = True
        engine._stop_workers = {0, 1}  # global STOP halts every worker
        with pytest.raises(SanitizerError) as err:
            engine.sanitizer.check_compute_allowed(4, 1, 0.2)
        assert err.value.invariant == "halted-compute"
        assert err.value.query_id == 4
        assert err.value.worker == 1

    def test_partial_stop_scoping(self):
        engine = _build_engine(grid_graph(6, 6), k=4, repartition_mode="partial")
        engine.paused = True
        engine._stop_workers = {1}
        engine._stop_queries = {5}
        # uninvolved query on an uninvolved worker keeps running
        engine.sanitizer.check_compute_allowed(0, 2, 0.2)
        with pytest.raises(SanitizerError, match="worker halted by a STOP"):
            engine.sanitizer.check_compute_allowed(0, 1, 0.2)
        with pytest.raises(SanitizerError, match="query halted"):
            engine.sanitizer.check_compute_allowed(5, 2, 0.2)

    def test_unpaused_engine_unrestricted(self):
        engine = _build_engine(grid_graph(6, 6), k=2)
        engine.sanitizer.check_compute_allowed(0, 0, 0.0)

    def test_shared_bsp_inflight_superstep_legal(self):
        """Under SHARED_BSP, pause + a superstep still computing are the
        documented protocol (the STOP waits for its last task); a compute
        once the superstep has settled is a bug."""
        engine = _build_engine(grid_graph(6, 6), k=2, sync_mode=SyncMode.SHARED_BSP)
        engine.paused = True
        engine._stop_workers, engine._stop_queries = engine._cluster_scope()
        engine._superstep_outstanding = 1
        engine.sanitizer.check_compute_allowed(0, 0, 0.2)  # legal drain
        engine._superstep_outstanding = 0
        with pytest.raises(SanitizerError, match="worker halted by a STOP"):
            engine.sanitizer.check_compute_allowed(0, 0, 0.2)


class TestMessageConservation:
    def test_dropped_migrated_message_detected(self):
        engine = _build_engine(grid_graph(8, 8), k=2)
        qr = _seeded_runtime(engine)
        qr.deliver_array(
            0,
            np.array([1, 2, 3], dtype=np.int64),
            np.array([0.5, 1.5, 2.5]),
            to_next=False,
        )
        pre = engine.sanitizer.snapshot_mailboxes()
        qr.mailboxes[0] = ArrayMailbox()  # the "bug": migration lost the box
        qr.mailboxes[0].append(
            np.array([1, 2], dtype=np.int64), np.array([0.5, 1.5])
        )
        with pytest.raises(SanitizerError) as err:
            engine.sanitizer.check_rebucket(pre, engine.assignment, 0.3)
        assert err.value.invariant == "message-conservation"
        assert err.value.query_id == 900
        assert err.value.details["before"] == 3
        assert err.value.details["after"] == 2

    def test_fabricated_duplicate_detected(self):
        """The array path must preserve the *multiset* — a duplicated
        message (double migration) is as much a bug as a lost one."""
        engine = _build_engine(grid_graph(8, 8), k=2)
        qr = _seeded_runtime(engine)
        qr.deliver_array(
            0, np.array([1, 2], dtype=np.int64), np.array([0.5, 1.5]), to_next=False
        )
        pre = engine.sanitizer.snapshot_mailboxes()
        qr.mailboxes[0].append(np.array([2], dtype=np.int64), np.array([1.5]))
        with pytest.raises(SanitizerError, match="message-conservation"):
            engine.sanitizer.check_rebucket(pre, engine.assignment, 0.3)

    def test_next_generation_also_guarded(self):
        engine = _build_engine(grid_graph(8, 8), k=2)
        qr = _seeded_runtime(engine)
        qr.deliver_array(
            0, np.array([4], dtype=np.int64), np.array([2.0]), to_next=True
        )
        pre = engine.sanitizer.snapshot_mailboxes()
        qr.next_mailboxes.clear()
        with pytest.raises(SanitizerError) as err:
            engine.sanitizer.check_rebucket(pre, engine.assignment, 0.3)
        assert err.value.details["generation"] == "next_mailboxes"

    def test_faithful_rebucket_passes(self):
        engine = _build_engine(grid_graph(8, 8), k=2)
        qr = _seeded_runtime(engine)
        vertices = np.array([1, 2, 3], dtype=np.int64)
        qr.deliver_array(0, vertices, np.array([0.5, 1.5, 2.5]), to_next=False)
        pre = engine.sanitizer.snapshot_mailboxes()
        qr.rebucket(engine.assignment)  # the real (correct) implementation
        engine.sanitizer.check_rebucket(pre, engine.assignment, 0.3)


class TestMailboxHoming:
    def test_stray_entry_detected(self):
        engine = _build_engine(grid_graph(8, 8), k=2)
        qr = _seeded_runtime(engine)
        vertex = 5
        home = int(engine.assignment[vertex])
        qr.deliver_array(
            home, np.array([vertex], dtype=np.int64), np.array([1.0]), to_next=False
        )
        pre = engine.sanitizer.snapshot_mailboxes()
        # same messages, wrong worker: conservation holds, homing is broken
        qr.mailboxes[1 - home] = qr.mailboxes.pop(home)
        with pytest.raises(SanitizerError) as err:
            engine.sanitizer.check_rebucket(pre, engine.assignment, 0.3)
        assert err.value.invariant == "mailbox-homing"
        assert err.value.worker == 1 - home
        assert err.value.details["stray_vertices"] == [vertex]


class TestScopeLiveness:
    def test_out_of_range_scope_entry_detected(self):
        engine = _build_engine(grid_graph(8, 8), k=2)
        n = engine.graph.num_vertices
        engine.controller.scopes.add_activations(7, [0, n + 5])
        with pytest.raises(SanitizerError) as err:
            engine.sanitizer.check_scope_liveness(0.4)
        assert err.value.invariant == "scope-liveness"
        assert err.value.query_id == 7

    def test_dead_vertex_in_scope_detected(self):
        graph = MutableDiGraph.from_digraph(grid_graph(8, 8))
        engine = _build_engine(graph, k=2)
        victim = 9
        graph.apply_delta(GraphDelta(remove_vertices=[victim]))
        engine.sanitizer.refresh_csr_fingerprint()  # legitimate flush
        engine.controller.scopes.add_activations(7, [victim])
        with pytest.raises(SanitizerError, match="tombstoned"):
            engine.sanitizer.check_scope_liveness(0.4)

    def test_live_scope_passes(self):
        engine = _build_engine(grid_graph(8, 8), k=2)
        engine.controller.scopes.add_activations(7, [0, 1, 2])
        engine.sanitizer.check_scope_liveness(0.4)


class TestStateShape:
    def test_shrunken_kernel_buffer_detected(self):
        engine = _build_engine(grid_graph(8, 8), k=2)
        qr = _seeded_runtime(engine)
        engine.sanitizer.check_state_shapes(0.5)  # intact: passes
        qr.kstate = qr.kstate[:-3]
        with pytest.raises(SanitizerError) as err:
            engine.sanitizer.check_state_shapes(0.5)
        assert err.value.invariant == "state-shape"
        assert err.value.query_id == 900

    def test_desynced_scope_mask_detected(self):
        engine = _build_engine(grid_graph(8, 8), k=2)
        qr = _seeded_runtime(engine)
        qr.scope_mask = qr.scope_mask[:-1]
        with pytest.raises(SanitizerError, match="scope mask"):
            engine.sanitizer.check_state_shapes(0.5)

    def test_desynced_assignment_detected(self):
        engine = _build_engine(grid_graph(8, 8), k=2)
        engine.assignment = engine.assignment[:-1]
        with pytest.raises(SanitizerError, match="assignment"):
            engine.sanitizer.check_state_shapes(0.5)


class TestEndToEndMigrationFault:
    def test_lossy_rebucket_caught_during_real_run(self, monkeypatch):
        """Drive a real adaptive workload with a sabotaged migration: the
        first rebucket that moves a non-empty mailbox silently drops it, the
        way a buggy migration path would.  The run must die with a
        conservation error instead of completing with a wrong answer."""
        real_rebucket = QueryRuntime.rebucket
        sabotaged = {"dropped": False}

        def lossy_rebucket(self, assignment, workers=None):
            real_rebucket(self, assignment, workers=workers)
            if not sabotaged["dropped"]:
                for worker, box in list(self.mailboxes.items()):
                    if len(box):
                        del self.mailboxes[worker]
                        sabotaged["dropped"] = True
                        break

        monkeypatch.setattr(QueryRuntime, "rebucket", lossy_rebucket)
        rn = road_network()
        engine = _build_engine(rn.graph)
        _workload(rn).submit_all(engine)
        with pytest.raises(SanitizerError, match="message-conservation"):
            engine.run()
        assert sabotaged["dropped"]
