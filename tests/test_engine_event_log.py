"""Event-for-event pins of the controller's dispatch paths in all sync modes.

The fingerprints elsewhere see per-query start/end times, counters and the
event count.  A change that swaps two events of one timestamp, or that
hands one a different sequence number, can keep all of those.  The
fingerprint-gated spine runs are all ``SyncMode.HYBRID``, while most
controller dispatch loops (redundant acks, STOP/START re-dispatch,
recovery re-dispatch) serve the other two modes.  Each test here runs a small
workload through an engine whose queue logs every event it pops (time,
sequence number, kind, scalar payload) and pins a digest of that log.

The digests were recorded at the commit before the controller's task
dispatch, redundant-ack round, iteration close and STOP opening became one
helper each.  Any change that only restructures host code must reproduce
them.  A change that re-times events on purpose re-pins them.  The three
``SHARED_BSP`` digests were re-pinned once by kind names alone, when a
superstep's tasks became ``task_ready`` events (were ``bsp_compute``) and
its release event became ``superstep_release`` (was ``bsp_next``): the
old logs with those two kinds renamed give the digests below.
"""

import numpy as np
import pytest

from engine_harness import LoggedQueue, controller_config, digest
from repro.core import Controller
from repro.engine import EngineConfig, QGraphEngine, Query, SimWorker, SyncMode
from repro.graph import MutableDiGraph, grid_graph
from repro.graph.road_network import generate_road_network
from repro.partitioning import DomainPartitioner, HashPartitioner
from repro.queries import SsspProgram
from repro.simulation.cluster import make_cluster
from repro.simulation.faults import ControllerCrash, FaultPlan, WorkerCrash
from repro.workload.generator import PhaseSpec, WorkloadGenerator

_SYNC_MODES = [SyncMode.HYBRID, SyncMode.GLOBAL_PER_QUERY, SyncMode.SHARED_BSP]


def _logged_run(monkeypatch, case, sync_mode):
    """Run one small workload; return its engine and its trace.

    * ``partial``: adaptive plan-scoped STOP/START on eight workers with
      one city per worker, half the queries crossing cities, so disjoint
      queries iterate through the STOP and park tasks on halted workers;
    * ``crash``: a transient worker crash (it rejoins before the run
      ends), a controller crash and lost stats reports, with checkpoints
      every second iteration and Q-cut on;
    * ``churn``: topology deltas held across an adaptive global
      STOP/START.
    """
    monkeypatch.setattr("repro.engine.engine.EventQueue", LoggedQueue)
    k = 8 if case == "partial" else 4
    rn = generate_road_network(
        num_cities=k,
        num_urban_vertices=600,
        seed=13,
        region_size=60.0,
        zipf_exponent=0.5,
    )
    graph = MutableDiGraph.from_digraph(rn.graph) if case == "churn" else rn.graph
    config = dict(adaptive=True, sync_mode=sync_mode, max_parallel_queries=12)
    phase = dict(num_queries=24, kind="sssp", label=case)
    faults = None
    if case == "partial":
        assignment = DomainPartitioner(rn).partition(graph, k)
        config.update(repartition_mode="partial", vertex_state_bytes=20_000)
        phase.update(intra_probability=0.5)
    else:
        assignment = HashPartitioner(seed=0).partition(graph, k)
    if case == "crash":
        config.update(checkpoint_interval=2)
        faults = FaultPlan(
            seed=0,
            crashes=(WorkerCrash(time=0.003, worker=1, downtime=0.0005),),
            controller_crashes=(ControllerCrash(time=0.002, downtime=0.001),),
            report_loss=0.1,
        )
    if case == "churn":
        phase.update(churn_rate=400.0, churn_span=0.01)
    engine = QGraphEngine(
        graph,
        make_cluster("M2", k),
        assignment,
        controller=Controller(
            k,
            controller_config(
                qcut_cooldown=0.005, min_queries_for_qcut=4, ils_rounds=20
            ),
        ),
        config=EngineConfig(**config),
        faults=faults,
    )
    WorkloadGenerator(rn, seed=5).generate([PhaseSpec(**phase)]).submit_all(engine)
    trace = engine.run()
    assert len(trace.finished_queries()) == 24
    return engine, trace


#: ``digest`` of the popped-event log of each ``_logged_run``
_PINNED_LOGS = {
    ("partial", SyncMode.HYBRID): "b2efe3a3ba48b33a",
    ("partial", SyncMode.GLOBAL_PER_QUERY): "243b8229a8a6d44c",
    # the three SHARED_BSP pins were re-pinned when every query started at
    # one instant began to join the superstep that instant releases: the 12
    # queries admitted at t = 0 share the first superstep (it ran query 0
    # alone), and each case needs fewer supersteps (29 -> 28, 27 -> 23,
    # 14 -> 12)
    ("partial", SyncMode.SHARED_BSP): "a4debdc959719628",
    # re-pinned when a crash-tainted query began to wait at its barrier for
    # the rollback: the resolutions that used to rotate on into lost
    # iterations (4 under HYBRID, 2 under GLOBAL_PER_QUERY) now hold, and a
    # held barrier drops the late ack that re-resolved one of them
    ("crash", SyncMode.HYBRID): "bb0664f566e26caf",
    ("crash", SyncMode.GLOBAL_PER_QUERY): "75e8e99ac82a0508",
    ("crash", SyncMode.SHARED_BSP): "7a4f605509e17634",
    ("churn", SyncMode.HYBRID): "62b349cbe1ead4df",
    ("churn", SyncMode.GLOBAL_PER_QUERY): "02f18dd2be83cd6f",
    ("churn", SyncMode.SHARED_BSP): "0a7c2074971ea4dd",
}


@pytest.mark.parametrize("sync_mode", _SYNC_MODES)
@pytest.mark.parametrize("case", ["partial", "crash", "churn"])
def test_event_log_is_pinned(monkeypatch, case, sync_mode):
    engine, trace = _logged_run(monkeypatch, case, sync_mode)
    # the run reached the paths it is here for
    if case == "partial":
        assert trace.repartitions
    elif case == "crash":
        assert trace.recoveries and trace.worker_recoveries == 1
        assert trace.lost_reports
    else:
        assert trace.repartitions and trace.churn_events
    assert engine._events_processed == len(engine.queue.log)
    assert digest(engine.queue.log) == _PINNED_LOGS[case, sync_mode]


#: ``digest`` of the popped-event log of the redirect race below
_PINNED_REDIRECT_LOGS = {
    SyncMode.HYBRID: "b6187995d4b51fa9",
    SyncMode.GLOBAL_PER_QUERY: "03edeed8b9c863cd",
}


@pytest.mark.parametrize("sync_mode", [SyncMode.HYBRID, SyncMode.GLOBAL_PER_QUERY])
def test_stale_dispatch_redirect_log_is_pinned(monkeypatch, sync_mode):
    """The redirect race of ``TestRedirectAckLiveness``, driven by hand in
    both modes that dispatch tasks: worker 0 computed and its ack is in
    flight when worker 1's stale task finds its box re-homed onto worker 2.
    Under ``GLOBAL_PER_QUERY`` the epoch bump also re-issues the redundant
    acks; no workload run reaches that round."""
    monkeypatch.setattr("repro.engine.engine.EventQueue", LoggedQueue)
    g = grid_graph(4, 4)
    k = 3
    engine = QGraphEngine(
        g,
        make_cluster("M2", k),
        HashPartitioner(seed=0).partition(g, k),
        controller=Controller(k),
        config=EngineConfig(adaptive=False, sync_mode=sync_mode),
    )
    seed_a = int(np.flatnonzero(engine.assignment == 0)[0])
    seed_b = int(np.flatnonzero(engine.assignment == 1)[0])
    engine.submit(Query(0, SsspProgram(seed_a), (seed_a, seed_b)))
    event = engine.queue.pop()
    engine._on_arrival(event.time, **event.payload)
    qr = engine.runtimes[0]
    engine.queue.drain()
    SimWorker.execute_iteration(
        engine.workers, [0], qr, engine.graph, engine.assignment
    )
    qr.computed = {0}
    engine.queue.schedule(
        engine.now + 1.0e-4,
        "barrier_ack",
        query_id=0,
        worker=0,
        epoch=qr.barrier_epoch,
    )
    engine.assignment[engine.assignment == 1] = 2
    qr.rebucket(engine.assignment)
    engine._on_task_ready(engine.now, 0, 1)
    engine.run()
    assert qr.finished
    assert digest(engine.queue.log) == _PINNED_REDIRECT_LOGS[sync_mode]
