"""Orchestration and reporting of the measurement spine (see ``__main__``).

    python3 -m benchmarks.spine                      # all four workloads
    python3 -m benchmarks.spine --workload open_mixed --seed 11 --json out.json
    python3 -m benchmarks.spine --check-repeat       # everything twice, compared

The benchmark driver calls it with ``--workload W --seed N --seconds S
--trace 0|1`` and reads the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence

import numpy
import scipy
from repro.bench.reporting import format_table

from .metrics import END_TO_END, PER_LAYER
from .workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
#: a run that takes longer than this is a failure, not a slow machine
CHILD_TIMEOUT_S = 150
DEFAULT_REPEATS = 3
#: what must repeat exactly between two runs of the same inputs
EXACT = tuple(m.name for m in END_TO_END if m.clock == "virtual")
#: the pair whose ratio is the paper's claim
CLAIM_PAIR = ("adaptive_disturbance", "static_hotspot")


def run_child(workload: str, seed: int, traced: bool, smoke: bool) -> Dict[str, Any]:
    """One run in a fresh single-threaded process (see ``child.py``)."""
    # the library's REPRO_* knobs (scale, sanitizer, legacy bench sizes)
    # must not reach a run; nothing else in the environment is read
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=SRC, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.spine.child",
         workload, str(seed), str(int(traced)), str(int(smoke))],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def _fingerprint(record: Dict[str, Any]) -> Dict[str, Any]:
    """Everything that must be identical between runs of the same inputs."""
    out = {name: record["end_to_end"][name] for name in EXACT}
    out["engine.events"] = record["layers"]["engine.events"]
    out["answer_digest"] = record["answer_digest"]
    return out


def _differences(what: str, first: Dict[str, Any], other: Dict[str, Any]) -> List[str]:
    a, b = _fingerprint(first), _fingerprint(other)
    return [f"{what}: {key} {a[key]!r} != {b[key]!r}" for key in a if a[key] != b[key]]


def measure(
    workload: str, seed: int, repeats: Optional[int], seconds: Optional[float],
    trace: Optional[int], smoke: bool,
) -> Dict[str, Any]:
    """Timed repeats (untraced) and/or the traced run of one workload.

    ``trace`` 0: timed repeats only; 1: one untraced run and the traced run
    (the per-layer numbers, checked against the untraced run); ``None``:
    both.  The repeats are either ``repeats`` many or as many as fit into
    ``seconds`` of measured run time, at least one.
    """
    untraced: List[Dict[str, Any]] = []
    spent = 0.0
    while True:
        record = run_child(workload, seed, traced=False, smoke=smoke)
        untraced.append(record)
        spent += record["wall_run_s"]
        if trace == 1:
            break
        if seconds is None:
            if len(untraced) >= (repeats or DEFAULT_REPEATS):
                break
        elif spent + record["wall_run_s"] > seconds:
            break

    first = untraced[0]
    problems: List[str] = []
    for i, record in enumerate(untraced[1:], start=2):
        problems += _differences(f"repeat {i} differs from repeat 1", first, record)

    wall = [r["wall_run_s"] for r in untraced]
    samples = {
        "setup_s": [s for r in untraced for s in r["setup_s"]],
        "wall_run_s": wall,
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
    }
    failed = sorted(set(first["unfinished"]) | set(first["wrong"]))
    end_to_end = {name: statistics.median(values) for name, values in samples.items()}
    end_to_end.update({name: first["end_to_end"][name] for name in EXACT})
    end_to_end["failed_frac"] = len(failed) / first["submitted"]
    result: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "repeats": len(untraced),
        "submitted": first["submitted"],
        "latency_samples": first["end_to_end"]["latency_samples"],
        "unfinished": first["unfinished"],
        "wrong": first["wrong"],
        "answer_digest": first["answer_digest"],
        "end_to_end": end_to_end,
        "host_samples": {
            name: {"n": len(values), "min": min(values), "max": max(values)}
            for name, values in samples.items()
        },
        "problems": problems,
    }
    if trace != 0:
        traced = run_child(workload, seed, traced=True, smoke=smoke)
        problems += _differences("traced run differs from untraced", first, traced)
        layers = traced["layers"]
        median_wall = statistics.median(wall)
        layers["engine.us_per_event"] = median_wall * 1e6 / layers["engine.events"]
        layers["trace_overhead_frac"] = traced["wall_run_s"] / median_wall - 1.0
        result.update(
            layers=layers,
            traced_wall_run_s=traced["wall_run_s"],
            span_self_s=traced["span_self_s"],
            trace_file=traced["trace_file"],
        )
    return result


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def _format_end_to_end(result: Dict[str, Any]) -> str:
    rows = []
    for m in END_TO_END:
        host = result["host_samples"].get(m.name)
        note = ""
        if host:
            note = f"median of {host['n']}, min {host['min']:.4g} max {host['max']:.4g}"
        elif m.name.startswith("vt_latency"):
            note = f"{result['latency_samples']} samples"
        elif m.name == "failed_frac":
            note = (f"{len(result['unfinished'])} unfinished + {len(result['wrong'])} wrong "
                    f"of {result['submitted']} submitted")
        bound = "-" if m.bound is None else f"{m.bound:.0%}"
        rows.append([m.name, result["end_to_end"][m.name], m.unit, m.clock, m.better, bound, note])
    return format_table(
        ["end-to-end metric", "value", "unit", "clock", "better", "bound", "note"], rows,
        title=(f"\n== {result['workload']} — seed {result['seed']}, {result['submitted']} "
               f"queries, {result['repeats']} timed repeat(s) =="),
        float_format="{:.6g}",
    )


def _format_layers(result: Dict[str, Any]) -> str:
    layers, traced_wall = result["layers"], result["traced_wall_run_s"]
    span_self_s = result["span_self_s"]
    rows = []
    for name, unit, _better in PER_LAYER:
        in_run = name.endswith("_s") and name[: -len("_s")] in span_self_s
        rows.append([name, layers[name], unit, f"{layers[name] / traced_wall:.1%}" if in_run else ""])
    total = sum(span_self_s.values())
    by_layer: Dict[str, float] = {}
    for name, seconds in span_self_s.items():
        layer = name.partition(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + seconds
    title = (
        f"\nper-layer, traced run: self times add up to {total:.4g} s = "
        f"{total / traced_wall:.1%} of the traced wall_run_s ({traced_wall:.4g} s): "
        + ", ".join(f"{layer} {by_layer[layer] / traced_wall:.1%}"
                    for layer in sorted(by_layer, key=by_layer.get, reverse=True))
        + f"; spans in {os.path.relpath(result['trace_file'], ROOT)}"
    )
    return format_table(["per-layer metric", "value", "unit", "share of run"], rows,
                        title=title, float_format="{:.6g}")


def _format_claim(results: Dict[str, Dict[str, Any]]) -> str:
    adaptive, static = (results[name]["end_to_end"] for name in CLAIM_PAIR)
    rows = [
        [name, adaptive[name], static[name],
         adaptive[name] / static[name] if static[name] else float("nan")]
        for name in EXACT
    ]
    return format_table(
        ["metric", CLAIM_PAIR[0], CLAIM_PAIR[1], "adaptive / static"], rows,
        title="\npaper claim (not gated): Q-cut + hybrid barriers vs static partitioning, same queries",
        float_format="{:.6g}",
    )


def _provenance() -> Dict[str, Any]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"  # not a git checkout, or no git
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
    }


def run_all(args: argparse.Namespace) -> Dict[str, Any]:
    """Measure the selected workloads one after the other and report."""
    results: Dict[str, Dict[str, Any]] = {}
    for name in args.workload:
        result = results[name] = measure(
            name, args.seed, args.repeats, args.seconds, args.trace, args.smoke
        )
        print(_format_end_to_end(result))
        if "layers" in result:
            print(_format_layers(result))
        for qid in result["unfinished"]:
            print(f"FAILED query {qid}: not finished at quiescence")
        for qid in result["wrong"]:
            print(f"FAILED query {qid}: answer differs from scipy.sparse.csgraph")
        sys.stdout.flush()

    problems = [f"{name}: {p}" for name, r in results.items() for p in r["problems"]]
    if all(name in results for name in CLAIM_PAIR):
        print(_format_claim(results))
        digests = [results[name]["answer_digest"] for name in CLAIM_PAIR]
        if digests[0] != digests[1]:
            problems.append(f"{CLAIM_PAIR[0]} answers are not bit-identical to {CLAIM_PAIR[1]}'s")
    for problem in problems:
        print(f"MISMATCH {problem}")
    failed = sum(len(set(r["unfinished"]) | set(r["wrong"])) for r in results.values())
    return {
        "provenance": _provenance(),
        "seed": args.seed,
        "smoke": args.smoke,
        "workloads": results,
        "problems": problems,
        "attempted": sum(r["submitted"] for r in results.values()),
        "failed": failed,
        "correct": failed == 0 and not problems,
    }


def check_repeat(args: argparse.Namespace) -> bool:
    """Run the whole benchmark twice; every ``vt_*`` metric must agree
    exactly and every host metric within its bound."""
    first, second = run_all(args), run_all(args)
    rows, ok = [], first["correct"] and second["correct"]
    for name in args.workload:
        a, b = (run["workloads"][name]["end_to_end"] for run in (first, second))
        for m in END_TO_END:
            x, y = a[m.name], b[m.name]
            diff = abs(y - x) / abs(x) if x else abs(y - x)
            allowed = m.bound if m.clock == "host" else 0.0
            verdict = "ok" if diff <= allowed else "DIFFERS"
            ok = ok and verdict == "ok"
            rows.append([name, m.name, x, y, f"{diff:.2%}", f"{allowed:.0%}", verdict])
    print(format_table(
        ["workload", "metric", "first", "second", "difference", "allowed", ""], rows,
        title="\n--check-repeat: two full sets of runs of the same commit",
        float_format="{:.6g}",
    ))
    return ok


def _driver_line(report: Dict[str, Any], trace: int) -> str:
    """The one-line result the benchmark driver reads (single workload)."""
    (result,) = report["workloads"].values()
    if trace == 0:
        metrics = {m.name: {"value": result["end_to_end"][m.name], "unit": m.unit}
                   for m in END_TO_END if m.bound is not None}
    else:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit, _better in PER_LAYER}
    return json.dumps({
        "correct": report["correct"], "attempted": report["attempted"],
        "failed": report["failed"], "metrics": metrics,
    })


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.spine", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all four, in order)")
    parser.add_argument("--seed", type=int, default=7,
                        help="draws the seeded tail of each workload's queries (default 7)")
    budget = parser.add_mutually_exclusive_group()
    budget.add_argument("--repeats", type=int,
                        help=f"timed repeats per workload (default {DEFAULT_REPEATS})")
    budget.add_argument("--seconds", type=float,
                        help="instead: as many timed repeats as fit into this much run time")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: timed repeats only; 1: one untraced run + the traced run; "
                             "default: timed repeats, then the traced run")
    parser.add_argument("--json", metavar="PATH", help="also write the full record here")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run everything twice and compare against the bounds")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizing (20 SSSP / 64 mixed pinned queries) for test_spine.py")
    args = parser.parse_args(argv)
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if not args.workload:
        args.workload = list(WORKLOADS)

    if args.check_repeat:
        return 0 if check_repeat(args) else 1
    report = run_all(args)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=1)
    if len(args.workload) == 1 and args.trace is not None:
        print(_driver_line(report, args.trace))
    return 0 if report["correct"] else 1

