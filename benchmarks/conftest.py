"""Shared helpers for the experiment benchmarks.

Every file in this directory regenerates one table or figure of the paper's
evaluation (see docs/experiments.md).  Benchmarks run each arm once
(``benchmark.pedantic(rounds=1)``) — the interesting output is the printed
comparison table (also captured in ``bench_output.txt``), and each test
attaches its headline ratios to ``benchmark.extra_info``.

Scale is controlled by the ``REPRO_SCALE`` environment variable
(``small`` default / ``medium`` / ``paper``); see ``repro.bench.harness``.
"""

from __future__ import annotations

from typing import Dict

import numpy as np
import pytest

from repro.bench import Scenario, ScenarioResult, run_scenario


def run_arms(arms: Dict[str, Scenario]) -> Dict[str, ScenarioResult]:
    """Run each named scenario arm once, in order."""
    return {name: run_scenario(s) for name, s in arms.items()}


def tail_mean_latency(
    result: ScenarioResult, fraction: float = 0.25, phase: str = None
) -> float:
    """Mean latency of the last ``fraction`` of completed queries.

    The paper's steady-state numbers exclude the adaptation warm-up; the tail
    mean is the equivalent cut for our shorter runs.  ``phase`` restricts the
    computation to one workload phase (e.g. the pre-disturbance queries).
    """
    recs = sorted(
        (
            q
            for q in result.trace.finished_queries()
            if phase is None or q.phase == phase
        ),
        key=lambda q: q.end_time,
    )
    tail = recs[int(len(recs) * (1.0 - fraction)) :]
    if not tail:
        return float("nan")
    return float(np.mean([q.latency for q in tail]))


def reduction(baseline: float, improved: float) -> float:
    """Relative reduction (positive = improved is lower/better)."""
    if baseline == 0:
        return float("nan")
    return 1.0 - improved / baseline


@pytest.fixture
def record_info(benchmark):
    """Attach a dict of headline numbers to the benchmark record."""

    def _record(**kwargs):
        for key, value in kwargs.items():
            benchmark.extra_info[key] = round(float(value), 4)

    return _record
