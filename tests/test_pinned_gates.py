"""Virtual-time gates pinned on small deterministic ``Scenario``s.

Each gate compares two arms of the paper's Fig. 5 workload (64 intra-urban
SSSP queries, plus 32 inter-urban disturbance queries except in the
checkpoint gate) on the BW road network, 8 workers, ``max_parallel=8``.
The engine is deterministic in virtual time, so every comparison below is
exact and independent of the host: a change that flips one re-times the
simulation.  The instances are pinned (``graph_scale=1.0``); the margins
are small and were measured on exactly these instances, so they say
nothing about other sizes or seeds.

* admission: ``locality`` ≤ ``fifo`` on makespan, ≥ on mean locality;
* repartition scope: ``partial`` ≤ ``global`` on makespan, same answers;
* churn: adaptive ≥ static on mean locality, and the churned CSR equals a
  fresh construction from the same edge list;
* checkpoints: fault-free checkpointing every 4 iterations costs at most
  10 % makespan;
* recovery: with two scheduled crashes plus 5 % message drop, control
  loss and report loss, every query finishes with the answers of the
  fault-free checkpointed run.

The identities these arms rest on (zero churn, zero faults, crash
recovery, kernels vs the generic path, the planner vs its set-based oracle
in ``reference_impls``) are held by ``test_engine_churn``,
``test_engine_faults``, ``test_engine_kernels`` and
``test_core_controller``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.bench.harness import (
    Scenario,
    ScenarioResult,
    road_network_for,
    run_scenario,
)
from repro.graph.delta import MutableDiGraph, fresh_rebuild
from repro.workload.generator import WorkloadGenerator

DISTURBANCE = Scenario(
    name="pinned",
    graph_preset="bw",
    graph_scale=1.0,
    k=8,
    workload="sssp",
    main_queries=64,
    disturbance_queries=32,
    max_parallel=8,
)


def _run(**overrides) -> ScenarioResult:
    result = run_scenario(replace(DISTURBANCE, **overrides))
    scenario = result.scenario
    total = scenario.main_queries + scenario.disturbance_queries
    assert len(result.trace.finished_queries()) == total
    return result


def _answers(result: ScenarioResult):
    return {
        qid: result.engine.query_result(qid) for qid in sorted(result.trace.queries)
    }


def test_locality_admission_beats_fifo():
    # measured: makespan 0.1955 vs 0.2018 s, locality 0.81910 vs 0.81895
    fifo = _run(partitioner="domain", scheduler="fifo")
    loc = _run(partitioner="domain", scheduler="locality")
    assert loc.makespan <= fifo.makespan
    assert loc.mean_locality >= fifo.mean_locality


def test_partial_repartitioning_does_not_lose_to_global():
    # measured: makespan 0.2099 vs 0.2153 s, one repartition each
    glob = _run(partitioner="domain", repartition_mode="global", seed=5)
    part = _run(partitioner="domain", repartition_mode="partial", seed=5)
    assert glob.trace.repartitions, "instance never repartitioned"
    assert part.makespan <= glob.makespan
    assert _answers(part) == _answers(glob)


def test_adaptive_keeps_locality_under_churn():
    # measured: locality 0.1115 vs 0.1032, 38 churn epochs each
    arms = {}
    for adaptive in (True, False):
        result = _run(adaptive=adaptive, churn=120.0, churn_span=0.25, seed=5)
        assert result.trace.churn_events, "churn process produced no epochs"
        graph = result.engine.graph
        assert isinstance(graph, MutableDiGraph)
        fresh = fresh_rebuild(graph)
        assert np.array_equal(graph.indptr, fresh.indptr)
        assert np.array_equal(graph.indices, fresh.indices)
        assert np.array_equal(graph.weights, fresh.weights)
        arms[adaptive] = result
    assert arms[True].mean_locality >= arms[False].mean_locality


@pytest.fixture(scope="module")
def checkpointed() -> ScenarioResult:
    """Fault-free run checkpointing every 4 iterations (64 queries, seed 5)."""
    return _run(disturbance_queries=0, seed=5, checkpoint_interval=4)


def test_checkpoint_overhead_within_ten_percent(checkpointed):
    # measured: makespan +4.7 % (0.03459 -> 0.03622 s, 155 checkpoints)
    plain = _run(disturbance_queries=0, seed=5)
    assert checkpointed.trace.checkpoints_taken > 0
    assert checkpointed.makespan <= plain.makespan * 1.10


def test_crash_recovery_under_message_and_control_loss(checkpointed):
    # measured: 1 crash observed (both draws hit worker 3), 1 recovery,
    # 8 queries rolled back, makespan 0.0362 -> 0.0607 s
    clean = checkpointed
    plan = WorkloadGenerator(road_network_for("bw", 1.0), seed=6).fault_plan(
        num_workers=clean.scenario.k,
        crashes=2,
        window=(0.15 * clean.makespan, 0.45 * clean.makespan),
        downtime=0.3 * clean.makespan,
        message_drop=0.05,
        control_loss=0.05,
        report_loss=0.05,
    )
    faulty = _run(disturbance_queries=0, seed=5, checkpoint_interval=4, faults=plan)
    # a crash drawn for an already-dead victim collapses into the first
    assert 1 <= faulty.trace.worker_crashes <= 2
    assert faulty.trace.recoveries, "no recovery barrier ran"
    assert _answers(faulty) == _answers(clean)
