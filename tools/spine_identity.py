#!/usr/bin/env python3
"""Is a change an identity transformation of the simulation?

    python3 tools/spine_identity.py PARENT_DIR CHANGE_DIR [--seeds 1-10]
                                    [--workload W ...] [--smoke] [--time]

Runs the measurement spine's untraced child (``python3 -m
benchmarks.spine.child <workload> <seed> 0 <smoke>``) in two checkouts —
each with its own working directory and ``PYTHONPATH``, every ``REPRO_*``
variable stripped, the two sides of a pair side by side, the parent's
child started first on a workload's 1st, 3rd, ... pair and the change's
on its 2nd, 4th, ... (the side started first can read several per cent
faster or slower on its own) — and compares
everything in the record that is not host time: ``end_to_end`` (the
``vt_*`` metrics and the latency sample count), every entry of ``layers``
(the library-side counts: events, messages, batches, drops, checkpoints,
repartitions, ...), ``answer_digest``, ``submitted``, ``unfinished`` and
``wrong``.  Prints one line per (workload, seed) and ``ALL IDENTICAL`` or
the differing keys; exits non-zero on a difference.

``--time`` adds what an identity transformation is made for: per workload,
the ``wall_run_s`` and ``peak_rss_mb`` of parent and change seed by seed
(the two sides of a pair ran at the same moment, under the same load) and
which side started first, the median of the per-pair ratios and on how
many pairs the change was lower (a gain is claimed only when it is lower on
at least 9 of 10 pairs), then each side's median and [Q1, Q3] over the
seeds, ``resolved`` only when the two sides' [Q1, Q3] ranges are disjoint
(the other half of that claim).  Last comes each side's host time per
simulated event, ``wall_run_s / engine.events`` in µs, median and
[Q1, Q3]: the event path's fixed cost, readable without a traced run.  It
never changes the verdict or the exit status.

A workload whose runs differ is followed by one line per ``vt_*`` metric:
the median and [Q1, Q3] over the seeds at parent and change, whether those
two ranges are disjoint (``resolved``) and, for the metrics
``BENCHMARK.json`` gives a direction (``better``), on how many seeds the
change is better.  That is what a change that means to move ``vt_*`` reads;
it never changes the verdict or the exit status either.

The workload names come from ``CHANGE_DIR/BENCHMARK.json``; nothing of the
spine is imported, it is only run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Sequence, Tuple

#: a run that takes longer than this is a failure, not a slow machine
CHILD_TIMEOUT_S = 300
#: host metrics ``--time`` pairs: record key -> (decimals, unit)
HOST_METRICS = {"wall_run_s": (2, "s"), "peak_rss_mb": (1, "MiB")}
#: record keys compared as a whole ...
SCALARS = ("answer_digest", "submitted", "unfinished", "wrong")
#: ... and entry by entry
TABLES = ("end_to_end", "layers")


def parse_seeds(spec: str) -> List[int]:
    """``"7"``, ``"1-10"``, ``"1,3,8-10"`` -> the seeds, in order."""
    seeds: List[int] = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {spec!r}")
    return seeds


def start_child(checkout: str, workload: str, seed: int, smoke: bool) -> "subprocess.Popen[str]":
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=os.path.join(checkout, "src"),
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
    )
    return subprocess.Popen(
        [sys.executable, "-m", "benchmarks.spine.child",
         workload, str(seed), "0", str(int(smoke))],
        cwd=checkout, env=env, stdout=subprocess.PIPE, text=True,
    )


def finish_child(child: "subprocess.Popen[str]", checkout: str) -> Dict[str, Any]:
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        raise RuntimeError(f"run in {checkout} exceeded {CHILD_TIMEOUT_S} s")
    if child.returncode != 0 or not stdout.strip():
        raise RuntimeError(f"run in {checkout} exited with status {child.returncode}")
    return json.loads(stdout.splitlines()[-1])


def differences(parent: Dict[str, Any], change: Dict[str, Any]) -> List[str]:
    """``key: parent value != change value`` for everything that differs."""
    out = [
        f"{key}: {parent.get(key)!r} != {change.get(key)!r}"
        for key in SCALARS
        if parent.get(key) != change.get(key)
    ]
    for table in TABLES:
        a, b = parent.get(table, {}), change.get(table, {})
        out += [
            f"{table}.{key}: {a.get(key)!r} != {b.get(key)!r}"
            for key in sorted(set(a) | set(b))
            if a.get(key) != b.get(key)
        ]
    return out


def start_order(pair: int) -> Tuple[int, int]:
    """Indices into ``(parent, change)`` in the order the ``pair``-th pair
    (0-based) of a workload starts them: the parent first on even pairs,
    the change first on odd ones."""
    return (0, 1) if pair % 2 == 0 else (1, 0)


def timing_lines(
    workload: str,
    pairs: Sequence[Tuple[int, float, float, str]],
    key: str = "wall_run_s",
) -> List[str]:
    """The ``--time`` report of one workload and one of :data:`HOST_METRICS`
    from its ``(seed, parent value, change value, side started first)``
    pairs: one line per pair, the paired summary, the spread summary."""
    decimals, unit = HOST_METRICS[key]
    lines = [
        f"{workload} seed {seed}: {key} {parent:.{decimals}f} -> "
        f"{change:.{decimals}f} ({change / parent - 1.0:+.0%}), {first} first"
        for seed, parent, change, first in pairs
    ]
    parent = [p for _s, p, _c, _f in pairs]
    change = [c for _s, _p, c, _f in pairs]
    ratio = statistics.median(c / p for p, c in zip(parent, change))
    lower = sum(c < p for p, c in zip(parent, change))
    lines.append(
        f"{workload}: {key} median "
        f"{statistics.median(parent):.{decimals}f} -> "
        f"{statistics.median(change):.{decimals}f} {unit}, "
        f"median change/parent {ratio:.3f} over {len(pairs)} pairs, "
        f"lower on {lower}/{len(pairs)} pairs"
    )
    lines.append(f"{workload}: {key} median {spread_text(parent, change)}")
    return lines


def per_event_line(
    workload: str, pairs: Sequence[Tuple[Dict[str, Any], Dict[str, Any]]]
) -> str:
    """Each side's host µs per simulated event (``wall_run_s /
    engine.events``) over the ``(parent, change)`` records of a workload's
    pairs: median [Q1, Q3] of both, resolved as in :func:`spread_text`."""
    parent, change = (
        [record["wall_run_s"] / record["layers"]["engine.events"] * 1e6
         for record in side]
        for side in zip(*pairs)
    )
    return f"{workload}: us per event median {spread_text(parent, change)}"


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(Q1, median, Q3)``, linearly interpolated (numpy's default)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def spread_text(parent: Sequence[float], change: Sequence[float]) -> str:
    """``median [Q1, Q3] -> median [Q1, Q3], (un)resolved``: resolved only
    when the two [Q1, Q3] ranges are disjoint; overlapping ranges never
    read as a shift."""
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    verdict = "resolved" if c3 < p1 or c1 > p3 else "unresolved"
    return f"{pm:.6g} [{p1:.6g}, {p3:.6g}] -> {cm:.6g} [{c1:.6g}, {c3:.6g}], {verdict}"


def metric_lines(
    workload: str,
    pairs: Sequence[Tuple[Dict[str, Any], Dict[str, Any]]],
    better: Dict[str, str],
) -> List[str]:
    """The ``vt_*`` summary of one workload from its ``(parent, change)``
    ``end_to_end`` tables, one pair per seed; ``better`` maps a metric to
    ``"lower"`` or ``"higher"``.  A tie counts for neither side."""
    lines = []
    for key in [k for k in pairs[0][0] if k.startswith("vt_")]:
        parent = [p[key] for p, _c in pairs]
        change = [c[key] for _p, c in pairs]
        line = f"{workload}: {key} median {spread_text(parent, change)}"
        if key in better:
            sign = 1.0 if better[key] == "higher" else -1.0
            wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
            line += f", change better on {wins}/{len(pairs)} seeds"
        lines.append(line)
    return lines


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--workload", action="append", dest="workloads",
                        help="repeatable; default: every workload of BENCHMARK.json")
    parser.add_argument("--smoke", action="store_true", help="smoke-size workloads")
    parser.add_argument("--time", action="store_true",
                        help="also print the paired wall_run_s and peak_rss_mb, "
                        "their median ratios and each side's quartiles, and "
                        "each side's host us per event")
    args = parser.parse_args(argv)

    checkouts = [os.path.abspath(args.parent_dir), os.path.abspath(args.change_dir)]
    with open(os.path.join(checkouts[1], "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    workloads = args.workloads or [w["name"] for w in benchmark["workloads"]]
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}

    differing = 0
    for workload in workloads:
        hosts: Dict[str, List[Tuple[int, float, float, str]]] = {
            k: [] for k in HOST_METRICS
        }
        tables: List[Tuple[Dict[str, Any], Dict[str, Any]]] = []
        records: List[Tuple[Dict[str, Any], Dict[str, Any]]] = []
        workload_differs = False
        for pair, seed in enumerate(args.seeds):
            order = start_order(pair)
            started = {
                side: start_child(checkouts[side], workload, seed, args.smoke)
                for side in order
            }
            children = [started[0], started[1]]
            first = ("parent", "change")[order[0]]
            try:
                parent, change = (
                    finish_child(child, c) for child, c in zip(children, checkouts)
                )
            finally:
                for child in children:
                    if child.poll() is None:
                        child.kill()
                        child.communicate()
            for key, series in hosts.items():
                series.append((seed, parent[key], change[key], first))
            tables.append((parent["end_to_end"], change["end_to_end"]))
            records.append((parent, change))
            diffs = differences(parent, change)
            if diffs:
                differing += 1
                workload_differs = True
                print(f"{workload} seed {seed}: DIFFERENT ({len(diffs)} keys)")
                for line in diffs:
                    print(f"    {line}")
            else:
                print(
                    f"{workload} seed {seed}: identical "
                    f"(engine.events {change['layers']['engine.events']}, "
                    f"vt_makespan_s {change['end_to_end']['vt_makespan_s']!r}, "
                    f"digest {str(change['answer_digest'])[:12]})"
                )
            sys.stdout.flush()
        if workload_differs:
            print("\n".join(metric_lines(workload, tables, better)), flush=True)
        if args.time:
            for key, series in hosts.items():
                print("\n".join(timing_lines(workload, series, key)), flush=True)
            print(per_event_line(workload, records), flush=True)
    if differing:
        print(f"{differing} of {len(workloads) * len(args.seeds)} runs DIFFER")
        return 1
    print("ALL IDENTICAL")
    return 0


if __name__ == "__main__":
    sys.exit(main())
