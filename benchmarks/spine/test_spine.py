"""Tier-1 checks of the measurement spine on its ``--smoke`` sizing."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

from . import child
from .runner import EXACT, ROOT
from .metrics import END_TO_END, PER_LAYER
from .tracer import PATCHES, _owners
from .workloads import WORKLOADS


def _patched_attributes():
    return [
        (owner, attribute, vars(owner)[attribute])
        for spec, attribute, _name, _keep in PATCHES
        for owner in _owners(spec, attribute)
    ]


@pytest.fixture(scope="module")
def runs():
    """One untraced and one traced smoke run of every workload."""
    before = _patched_attributes()
    out = {
        name: (child.run_once(name, 7, False, True), child.run_once(name, 7, True, True))
        for name in WORKLOADS
    }
    out["restored"] = all(vars(o)[a] is original for o, a, original in before)
    return out


def test_tracing_restores_every_patched_attribute(runs):
    assert runs["restored"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_matches_untraced_and_accounts_for_its_wall_time(runs, name):
    untraced, traced = runs[name]
    for metric in EXACT:
        assert traced["end_to_end"][metric] == untraced["end_to_end"][metric]
    assert traced["layers"]["engine.events"] == untraced["layers"]["engine.events"]
    assert traced["answer_digest"] == untraced["answer_digest"]
    assert untraced["unfinished"] == untraced["wrong"] == []
    assert sum(traced["span_self_s"].values()) == pytest.approx(traced["wall_run_s"], rel=0.03)
    with open(traced["trace_file"]) as handle:
        events = json.load(handle)["traceEvents"]
    assert events[0]["name"] == "graph.build" and any(e["name"] == "engine.run_self" for e in events)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(runs, name):
    layers = runs[name][1]["layers"]
    # these two compare the traced run with the untraced repeats (runner.measure)
    derived = {"engine.us_per_event", "trace_overhead_frac"}
    for metric, unit, better in PER_LAYER:
        assert unit and better in ("lower", "higher")
        if metric not in derived:
            assert math.isfinite(layers[metric]), metric


def test_adaptive_answers_are_bit_identical_to_static(runs):
    assert (runs["adaptive_disturbance"][0]["answer_digest"]
            == runs["static_hotspot"][0]["answer_digest"])


def test_another_seed_is_another_workload_that_still_checks_out(runs):
    other = child.run_once("open_mixed", 11, False, True)
    assert other["answer_digest"] != runs["open_mixed"][0]["answer_digest"]
    assert other["unfinished"] == other["wrong"] == []


@pytest.mark.parametrize("trace", (0, 1))
def test_driver_line(trace):
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.spine", "--smoke", "--workload", "open_mixed",
         "--seed", "11", "--seconds", "0.05", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=120,
    )
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] == 64 + 8
    if trace == 0:
        expected = {m.name: m.unit for m in END_TO_END if m.bound is not None}
    else:
        expected = {name: unit for name, unit, _better in PER_LAYER}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in line["metrics"].values())
    for m in END_TO_END:  # the human-readable report names all nine, with units
        assert m.name in done.stdout and m.unit in done.stdout


def test_benchmark_json_lists_the_catalogue():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END if m.bound is not None
    ]
    assert spec["per_layer"] == [
        {"name": name, "unit": unit, "better": better} for name, unit, better in PER_LAYER
    ]
