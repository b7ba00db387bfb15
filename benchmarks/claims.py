"""The paper's checkable claims, one row each, and the table they make.

Run from the repository root::

    PYTHONPATH=src python -m benchmarks.claims

Every claim the evaluation (§4: Fig. 1, 5a/b, 6a-g, 7, Table 1, the LDG
side finding, plus the controller-parameter ablation) makes that this
reproduction can check is one :class:`Claim`: a statement, the paper's
number, what we measure, and a predicate.  Claims are grouped by
:class:`Experiment`: a set of named :class:`~repro.bench.Scenario` arms
and a ``measure`` function that turns the arms' results into the
names the claims' predicates and number templates read.  The predicates
are Python expressions evaluated over that namespace.

Each *distinct* scenario (every field but ``name``) runs once, however many
experiments share it, and its result is released once the last experiment
that reads it has been measured.  The rendered markdown table replaces the
block between :data:`BEGIN` and :data:`END` in ``docs/experiments.md``; the
script exits non-zero when any verdict (holds / does not hold) differs from
the checked-in table.  Only verdicts are compared, never digits, so a host
whose floats differ in the last bit does not fail.  The script takes no
flags and reads no environment variable: the query counts are literals.
"""

from __future__ import annotations

import dataclasses
import pathlib
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.bench import Scenario, ScenarioResult, run_scenario
from repro.core import iterated_local_search, query_cut_excess
from repro.engine import SyncMode
from repro.graph import edge_cut, new_york_districts
from repro.graph.generators import NY_CUTS, NY_QUERY_SCOPES

DOC = pathlib.Path(__file__).resolve().parent.parent / "docs" / "experiments.md"
BEGIN = "<!-- claims:begin (generated by `python -m benchmarks.claims`; do not edit) -->"
END = "<!-- claims:end -->"
HEADER = ("id", "figure", "claim", "command", "paper", "ours", "verdict")

Results = Mapping[str, ScenarioResult]
Namespace = Dict[str, Any]


@dataclass(frozen=True)
class Claim:
    """One row of the table.

    ``check`` is a Python expression over the experiment's namespace, the
    assert of the figure driver this row replaced, verbatim.  ``ours`` is a
    ``str.format`` template over the same namespace.  ``note`` is printed
    after the verdict (the known defect behind a claim that does not hold).
    """

    id: str
    statement: str
    paper: str
    ours: str
    check: str
    note: str = ""


@dataclass(frozen=True)
class Experiment:
    """Named scenario arms, how to measure them, and the claims they test."""

    figure: str
    arms: Mapping[str, Scenario]
    measure: Callable[[Results], Namespace]
    claims: Tuple[Claim, ...]


@dataclass(frozen=True)
class Row:
    claim: Claim
    figure: str
    ours: str
    holds: bool

    @property
    def verdict(self) -> str:
        return "holds" if self.holds else "does not hold"


# ----------------------------------------------------------------------
# metrics over arm results
# ----------------------------------------------------------------------
def tail_mean_latency(
    result: ScenarioResult, fraction: float = 0.25, phase: Optional[str] = None
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


def tail_locality(result: ScenarioResult) -> float:
    """Mean locality of the last quarter of completed queries."""
    recs = sorted(result.trace.finished_queries(), key=lambda q: q.end_time)
    return float(np.mean([q.locality for q in recs[-len(recs) // 4 :]]))


def reduction(baseline: float, improved: float) -> float:
    """Relative reduction (positive = improved is lower/better)."""
    if baseline == 0:
        return float("nan")
    return 1.0 - improved / baseline


# ----------------------------------------------------------------------
# arms: the paper's query counts divided by 8, with a floor per figure
# (2048 -> 384 on BW and 256 on GY, 1024 -> 192, 512 -> 128, 128 -> 64;
# Fig. 6d runs the paper's 64); graphs are the BW / GY presets at their
# default sizes
# ----------------------------------------------------------------------
def four_arms(**base: Any) -> Dict[str, Scenario]:
    """Hash and Domain, each static and with Q-cut."""
    return {
        f"{part}-{'qcut' if adaptive else 'static'}": Scenario(
            name=f"{part}-{'qcut' if adaptive else 'static'}",
            partitioner=part,
            adaptive=adaptive,
            **base,
        )
        for part in ("hash", "domain")
        for adaptive in (False, True)
    }


M2_BASE = dict(infrastructure="M2", k=8, seed=3)  # every M2 arm: 8 workers, workload seed 3
BW_SSSP = four_arms(graph_preset="bw", main_queries=384, **M2_BASE)
BW_DISTURBED = four_arms(
    graph_preset="bw", main_queries=384, disturbance_queries=96, **M2_BASE
)
GY_SSSP = four_arms(graph_preset="gy", main_queries=256, **M2_BASE)
BW_POI = four_arms(graph_preset="bw", workload="poi", main_queries=384, **M2_BASE)
BALANCE_ARMS = {
    "hash-static": BW_SSSP["hash-static"],
    "domain-static": BW_SSSP["domain-static"],
    "qcut": BW_SSSP["hash-qcut"],
}


def barrier_arms() -> Dict[str, Scenario]:
    base = dict(
        graph_preset="bw", infrastructure="M1", k=8, main_queries=64,
        adaptive=False, seed=3,
    )
    arms = {}
    for part in ("hash", "domain"):
        for mode in (SyncMode.SHARED_BSP, SyncMode.GLOBAL_PER_QUERY, SyncMode.HYBRID):
            name = f"{part}/{mode.value}"
            arms[name] = Scenario(name=name, partitioner=part, sync_mode=mode, **base)
    # adaptive arm: how much of the hybrid barrier budget STOP/START costs
    arms["hash/hybrid+qcut"] = Scenario(
        name="hash/hybrid+qcut",
        partitioner="hash",
        sync_mode=SyncMode.HYBRID,
        **{**base, "adaptive": True},
    )
    return arms


WORKER_COUNTS = (2, 4, 8, 16)


def scaling_arms(workload: str) -> Dict[str, Scenario]:
    arms = {}
    for part in ("hash", "domain"):
        for adaptive in (False, True):
            for k in WORKER_COUNTS:
                label = f"{part}{'-qcut' if adaptive else ''}/k={k}"
                arms[label] = Scenario(
                    name=label, partitioner=part, adaptive=adaptive,
                    graph_preset="bw", infrastructure="C1", k=k,
                    workload=workload, main_queries=192, seed=3,
                )
    return arms


def static_bw_128(name: str, **fields: Any) -> Scenario:
    """A static 128-query BW/SSSP arm on M2, k=8 (``fields`` override)."""
    base = dict(graph_preset="bw", main_queries=128, adaptive=False, **M2_BASE)
    return Scenario(name=name, **{**base, **fields})


def ablation_arm(name: str, **controller_overrides: Any) -> Scenario:
    """Hash + Q-cut on BW/SSSP with one controller parameter changed."""
    return dataclasses.replace(
        BW_SSSP["hash-qcut"],
        name=name,
        controller_overrides=tuple(controller_overrides.items()),
    )


# ----------------------------------------------------------------------
# measure functions: arm results -> the names the claims read
# ----------------------------------------------------------------------
def measure_fig1(_results: Results) -> Namespace:
    graph = new_york_districts()
    scopes = {i: set(s) for i, s in enumerate(NY_QUERY_SCOPES.values())}
    by_name = {}
    for name in ("cut1", "cut2", "cut3"):
        side = NY_CUTS[name]
        assignment = np.array([0 if v in side else 1 for v in range(10)])
        by_name[name] = (
            name,
            edge_cut(graph, assignment) // 2,  # undirected connections
            query_cut_excess(scopes, assignment, 2),
        )
    return {"by_name": by_name}


def measure_fig5a(results: Results) -> Namespace:
    # steady state of the main (intra-urban) phase, pre-disturbance
    hash_tail = tail_mean_latency(results["hash-static"], phase="intra")
    qcut_tail = tail_mean_latency(results["hash-qcut"], phase="intra")
    dom_tail = tail_mean_latency(results["domain-static"], phase="intra")
    dqcut_tail = tail_mean_latency(results["domain-qcut"], phase="intra")
    return {
        "results": results,
        "hash_tail": hash_tail,
        "qcut_tail": qcut_tail,
        "dom_tail": dom_tail,
        "dqcut_tail": dqcut_tail,
        "red_vs_hash": reduction(hash_tail, min(qcut_tail, dqcut_tail)),
        "red_vs_domain": reduction(dom_tail, dqcut_tail),
        "reparts": len(results["hash-qcut"].trace.repartitions),
    }


def measure_summed_latency(results: Results) -> Namespace:
    """Fig. 6a-c: steady-state (tail) reduction of the best Q-cut arm."""
    best_qcut_tail = min(
        tail_mean_latency(results["hash-qcut"]),
        tail_mean_latency(results["domain-qcut"]),
    )
    return {
        "results": results,
        "red_hash": reduction(tail_mean_latency(results["hash-static"]), best_qcut_tail),
        "red_dom": reduction(
            tail_mean_latency(results["domain-static"]),
            tail_mean_latency(results["domain-qcut"]),
        ),
    }


def measure_fig6d(results: Results) -> Namespace:
    adaptive = results["hash/hybrid+qcut"]
    speedups = {}
    for part in ("hash", "domain"):
        hybrid = results[f"{part}/hybrid"].total_latency
        speedups[part] = {
            "vs shared-bsp": results[f"{part}/shared-bsp"].total_latency / hybrid,
            "vs global-per-query": results[f"{part}/global-per-query"].total_latency
            / hybrid,
        }
    return {
        "stall": adaptive.trace.total_repartition_stall(),
        "legacy": sum(r.barrier_duration for r in adaptive.trace.repartitions),
        "speedups": speedups,
        "partition_speedup": results["hash/hybrid"].total_latency
        / results["domain/hybrid"].total_latency,
    }


def arm_results(results: Results) -> Namespace:
    return {"results": results}


def measure_fig6e(results: Results) -> Namespace:
    return {
        "hash_imb": results["hash-static"].mean_imbalance,
        "dom_imb": results["domain-static"].mean_imbalance,
        "qcut_imb": results["qcut"].mean_imbalance,
    }


def measure_fig6f(results: Results) -> Namespace:
    return {"results": results, "tail_locality": tail_locality(results["qcut"])}


def measure_fig6g(results: Results) -> Namespace:
    """ILS on the controller's first Q-cut snapshot of Hash/BW."""
    snapshot = results["snapshot"]
    state, _fragments, _held = snapshot.controller._build_snapshot(
        snapshot.engine.assignment
    )
    res = iterated_local_search(state, max_rounds=60, seed=1)
    return {
        "state": state,
        "res": res,
        "imbalance_before": state.max_imbalance(),
        "imbalance_after": res.best_state.max_imbalance(),
    }


def measure_scaling(results: Results) -> Namespace:
    """Fig. 7: makespan per series and worker count."""
    series = {
        part: [results[f"{part}/k={k}"].makespan for k in WORKER_COUNTS]
        for part in ("hash", "hash-qcut", "domain", "domain-qcut")
    }
    return {"series": series}


def measure_ldg(results: Results) -> Namespace:
    ratio = results["ldg"].mean_latency / min(
        results["hash"].mean_latency, results["domain"].mean_latency
    )
    return {"results": results, "ratio": ratio}


def measure_table1(results: Results) -> Namespace:
    return {"results": results, "qgraph": results["q-graph"].mean_latency}


def measure_ablation(results: Results) -> Namespace:
    return {
        "results": results,
        "tail_locality": tail_locality,
        "loc": {name: tail_locality(r) for name, r in results.items()},
        "reparts": {name: len(r.trace.repartitions) for name, r in results.items()},
    }


# ----------------------------------------------------------------------
# the claims
# ----------------------------------------------------------------------
FIG6D_PAPER = "1.2-1.7x (hybrid vs traditional barriers)"

EXPERIMENTS: Tuple[Experiment, ...] = (
    Experiment("Fig. 1", {}, measure_fig1, (
        Claim(
            "fig1-cut1",
            "cut 1 keeps both queries whole at a larger edge-cut",
            "edge-cut 6, query-cut 0",
            "{by_name[cut1][1]} / {by_name[cut1][2]}",
            'by_name["cut1"][1:] == (6, 0)',
        ),
        Claim(
            "fig1-cut2",
            "cut 2 keeps both queries whole at the largest edge-cut",
            "edge-cut 8, query-cut 0",
            "{by_name[cut2][1]} / {by_name[cut2][2]}",
            'by_name["cut2"][1:] == (8, 0)',
        ),
        Claim(
            "fig1-cut3",
            "cut 3, the query-agnostic optimum, splits query q2",
            "edge-cut 2, query-cut 1",
            "{by_name[cut3][1]} / {by_name[cut3][2]}",
            'by_name["cut3"][1:] == (2, 1)',
        ),
    )),
    Experiment("Fig. 5a", BW_DISTURBED, measure_fig5a, (
        Claim(
            "fig5a-vs-hash",
            "BW/SSSP: Q-cut beats static Hash in the intra-urban steady state",
            "up to 49 % lower latency",
            "{red_vs_hash:+.0%} (tail {hash_tail:.4g} -> {qcut_tail:.4g} s)",
            "min(qcut_tail, dqcut_tail) < hash_tail",
        ),
        Claim(
            "fig5a-vs-domain",
            "BW/SSSP: Q-cut on Domain beats static Domain in the steady state",
            "up to 40 % lower latency",
            "{red_vs_domain:+.0%} (tail {dom_tail:.4g} -> {dqcut_tail:.4g} s)",
            "dqcut_tail < dom_tail",
        ),
        Claim(
            "fig5a-adapts",
            "BW/SSSP: Q-cut on Hash repartitions at least once",
            "adapts, and re-adapts after the disturbance",
            "{reparts} repartitions",
            'len(results["hash-qcut"].trace.repartitions) >= 1',
        ),
    )),
    Experiment("Fig. 5b", GY_SSSP, arm_results, (
        Claim(
            "fig5b-domain-straggler",
            "GY/SSSP: Domain's workload imbalance exceeds Hash's",
            "Domain fares worse than on BW (Berlin straggler)",
            "{results[domain-static].mean_imbalance:.4g} vs "
            "{results[hash-static].mean_imbalance:.4g}",
            'results["domain-static"].mean_imbalance > results["hash-static"].mean_imbalance',
        ),
        Claim(
            "fig5b-qcut-rebalances",
            "GY/SSSP: Q-cut lowers Domain's workload imbalance",
            "up to 30 % lower latency vs Domain",
            "{results[domain-qcut].mean_imbalance:.4g} vs "
            "{results[domain-static].mean_imbalance:.4g}",
            'results["domain-qcut"].mean_imbalance < results["domain-static"].mean_imbalance',
        ),
    )),
    Experiment("Fig. 6a", BW_SSSP, measure_summed_latency, (
        Claim(
            "fig6a-vs-hash",
            "BW/SSSP: Q-cut lowers steady-state latency vs static Hash",
            "43 % lower summed latency",
            "{red_hash:+.0%} tail reduction",
            "red_hash > 0",
        ),
        Claim(
            "fig6a-vs-domain",
            "BW/SSSP: Q-cut lowers steady-state latency vs static Domain",
            "22 % lower summed latency",
            "{red_dom:+.0%} tail reduction",
            "red_dom > 0",
        ),
    )),
    Experiment("Fig. 6b", GY_SSSP, measure_summed_latency, (
        Claim(
            "fig6b-qcut-rebalances",
            "GY/SSSP: Q-cut repairs Domain's straggler imbalance",
            "13 % / 25 % lower summed latency vs Hash / Domain",
            "{results[domain-qcut].mean_imbalance:.4g} vs "
            "{results[domain-static].mean_imbalance:.4g} "
            "(tail reduction {red_hash:+.0%} / {red_dom:+.0%})",
            'results["domain-qcut"].mean_imbalance < results["domain-static"].mean_imbalance',
        ),
    )),
    Experiment("Fig. 6c", BW_POI, measure_summed_latency, (
        Claim(
            "fig6c-poi",
            "BW/POI: Q-cut generalises beyond SSSP (beats Hash or Domain)",
            "50 % / 28 % lower summed latency vs Hash / Domain",
            "{red_hash:+.0%} / {red_dom:+.0%} tail reduction",
            "red_hash > 0 or red_dom > 0",
        ),
    )),
    Experiment("Fig. 6d", barrier_arms(), measure_fig6d, (
        Claim(
            "fig6d-honest-stall",
            "STOP/START stall never exceeds the legacy barrier_duration",
            "Q-cut planning overlaps execution (§3.4)",
            "{stall:.5f} s vs {legacy:.5f} s",
            "stall <= legacy",
        ),
        Claim(
            "fig6d-domain-vs-bsp",
            "Domain: hybrid barrier beats BSP-like global synchronization",
            FIG6D_PAPER,
            "{speedups[domain][vs shared-bsp]:.2f}x",
            'speedups["domain"]["vs shared-bsp"] > 1.15',
        ),
        Claim(
            "fig6d-domain-vs-global",
            "Domain: hybrid barrier beats per-query global barriers",
            FIG6D_PAPER,
            "{speedups[domain][vs global-per-query]:.2f}x",
            'speedups["domain"]["vs global-per-query"] > 1.15',
        ),
        Claim(
            "fig6d-hash-vs-bsp",
            "Hash: hybrid barrier is no slower than BSP-like",
            FIG6D_PAPER,
            "{speedups[hash][vs shared-bsp]:.2f}x "
            "(Hash -> Domain: {partition_speedup:.2f}x, paper 1.7-2.4x)",
            'speedups["hash"]["vs shared-bsp"] >= 0.98',
        ),
    )),
    Experiment("Fig. 6e", BALANCE_ARMS, measure_fig6e, (
        Claim(
            "fig6e-balance",
            "BW/SSSP: Hash balanced, Domain imbalanced, Q-cut in between",
            "Q-cut converges to ~20 % (the δ = 0.25 cap)",
            "{hash_imb:.4g} < {qcut_imb:.4g} < {dom_imb:.4g}",
            "hash_imb < qcut_imb < dom_imb",
        ),
    )),
    Experiment("Fig. 6f", BALANCE_ARMS, measure_fig6f, (
        Claim(
            "fig6f-domain-local",
            "BW/SSSP: Domain keeps query iterations local",
            "> 95 % local iterations",
            "{results[domain-static].mean_locality:.4g}",
            'results["domain-static"].mean_locality > 0.8',
        ),
        Claim(
            "fig6f-hash-remote",
            "BW/SSSP: Hash scatters query iterations",
            "~38 % local iterations",
            "{results[hash-static].mean_locality:.4g}",
            'results["hash-static"].mean_locality < 0.3',
        ),
        Claim(
            "fig6f-qcut-climbs",
            "BW/SSSP: Q-cut's converged locality climbs well above Hash's",
            "converges toward ~80 %",
            "{tail_locality:.4g} (tail) vs {results[hash-static].mean_locality:.4g}",
            'tail_locality > results["hash-static"].mean_locality + 0.2',
        ),
    )),
    Experiment("Fig. 6g", {"snapshot": static_bw_128("snapshot", main_queries=64)},
               measure_fig6g, (
        Claim(
            "fig6g-convergence",
            "ILS cuts the first Hash/BW snapshot's cost",
            "> 75 % within the 2 s budget",
            "{res.improvement:.0%} ({res.initial_cost:.0f} -> {res.best_cost:.0f})",
            "res.improvement > 0.75",
        ),
        Claim(
            "fig6g-balance",
            "ILS ends balanced, or no less balanced than its input",
            "every solution state is balanced (Appendix A.1)",
            "imbalance {imbalance_before:.3f} -> {imbalance_after:.3f} (δ = 0.25)",
            "res.best_state.is_balanced() or "
            "state.max_imbalance() >= res.best_state.max_imbalance()",
            note="known ILS defect, strict xfail "
            "`tests/test_core_ils.py::TestSolutionBalance` (ROADMAP item 3)",
        ),
    )),
    Experiment("Fig. 7a", scaling_arms("sssp"), measure_scaling, (
        Claim(
            "fig7a-hash-scales-to-8",
            "C1/SSSP: Hash makespan improves from k=2 to k=8",
            "927 -> 474 s",
            "{series[hash][0]:.4g} -> {series[hash][2]:.4g} s",
            'series["hash"][2] < series["hash"][0]',
        ),
        Claim(
            "fig7a-hash-stalls-past-8",
            "C1/SSSP: Hash stops scaling beyond k=8",
            "474 -> 863 s",
            "{series[hash][2]:.4g} -> {series[hash][3]:.4g} s",
            'series["hash"][3] > 0.85 * series["hash"][2]',
        ),
        Claim(
            "fig7a-domain-scales-to-16",
            "C1/SSSP: Domain keeps improving through k=16",
            "1790 -> 562 s",
            "{series[domain][0]:.4g} -> {series[domain][3]:.4g} s",
            'series["domain"][3] < series["domain"][0]',
        ),
        Claim(
            "fig7a-qcut-at-8",
            "C1/SSSP: Q-cut on Hash is no worse than static Hash at k=8",
            "283 vs 474 s",
            "{series[hash-qcut][2]:.4g} vs {series[hash][2]:.4g} s",
            'series["hash-qcut"][2] < 1.05 * series["hash"][2]',
        ),
    )),
    Experiment("Fig. 7b", scaling_arms("poi"), measure_scaling, (
        Claim(
            "fig7b-hash-scales-to-8",
            "C1/POI: Hash makespan improves from k=2 to k=8",
            "same shape as SSSP",
            "{series[hash][0]:.4g} -> {series[hash][2]:.4g} s",
            'series["hash"][2] < series["hash"][0]',
        ),
        Claim(
            "fig7b-domain-scales-to-16",
            "C1/POI: Domain keeps improving through k=16",
            "same shape as SSSP",
            "{series[domain][0]:.4g} -> {series[domain][3]:.4g} s",
            'series["domain"][3] < series["domain"][0]',
        ),
    )),
    Experiment(
        "§4.1 LDG",
        {part: static_bw_128(part, partitioner=part) for part in ("hash", "domain", "ldg")},
        measure_ldg,
        (
            Claim(
                "ldg-imbalance",
                "LDG concentrates query load far beyond Hash",
                "highly imbalanced; 2-6x latency",
                "{results[ldg].mean_imbalance:.4g} vs "
                "{results[hash].mean_imbalance:.4g} "
                "(latency {ratio:.2f}x: the blow-up does not reproduce)",
                'results["ldg"].mean_imbalance > 4 * results["hash"].mean_imbalance',
            ),
        ),
    ),
    Experiment(
        "Table 1",
        {
            "pregel-like": static_bw_128("pregel-like", sync_mode=SyncMode.SHARED_BSP),
            "seraph-like": static_bw_128("seraph-like", sync_mode=SyncMode.GLOBAL_PER_QUERY),
            "q-graph": static_bw_128("q-graph", adaptive=True),
        },
        measure_table1,
        (
            Claim(
                "table1-vs-pregel",
                "Q-Graph (locality, multi-query, adaptive) beats Pregel-like",
                "only Q-Graph has all three",
                "{qgraph:.4g} vs {results[pregel-like].mean_latency:.4g} s",
                'qgraph < results["pregel-like"].mean_latency',
            ),
            Claim(
                "table1-vs-seraph",
                "Q-Graph beats Seraph-like (per-query global barriers)",
                "only Q-Graph has all three",
                "{qgraph:.4g} vs {results[seraph-like].mean_latency:.4g} s",
                'qgraph < results["seraph-like"].mean_latency',
            ),
        ),
    ),
    Experiment(
        "Ablation δ",
        {
            "delta=0.1": ablation_arm("delta=0.1", delta=0.1),
            "delta=0.25": BW_SSSP["hash-qcut"],  # the default, δ = 0.25
            "delta=0.6": ablation_arm("delta=0.6", delta=0.6),
        },
        measure_ablation,
        (
            Claim(
                "ablation-delta",
                "a looser balance cap permits at least as much locality",
                "δ = 0.25",
                "{loc[delta=0.1]:.4g} / {loc[delta=0.25]:.4g} / {loc[delta=0.6]:.4g} "
                "(δ = 0.1 / 0.25 / 0.6)",
                'tail_locality(results["delta=0.6"]) >= '
                'tail_locality(results["delta=0.1"]) - 0.05',
            ),
        ),
    ),
    Experiment(
        "Ablation Φ",
        {
            "phi=0 (never)": ablation_arm("phi0", phi=0.0),
            "phi=0.7 (paper)": BW_SSSP["hash-qcut"],  # the default, Φ = 0.7
        },
        measure_ablation,
        (
            Claim(
                "ablation-phi0-never",
                "Φ = 0 disables adaptation",
                "Φ = 0.7",
                "{reparts[phi=0 (never)]} repartitions",
                'len(results["phi=0 (never)"].trace.repartitions) == 0',
            ),
            Claim(
                "ablation-phi-adapts",
                "Φ = 0.7 repartitions",
                "Φ = 0.7",
                "{reparts[phi=0.7 (paper)]} repartitions",
                'len(results["phi=0.7 (paper)"].trace.repartitions) >= 1',
            ),
            Claim(
                "ablation-phi-locality",
                "adapting at Φ = 0.7 raises converged locality over Φ = 0",
                "Φ = 0.7",
                "{loc[phi=0.7 (paper)]:.4g} vs {loc[phi=0 (never)]:.4g}",
                'tail_locality(results["phi=0.7 (paper)"]) > '
                'tail_locality(results["phi=0 (never)"])',
            ),
        ),
    ),
    Experiment(
        "Ablation clusters",
        {
            "cpw=1": ablation_arm("cpw=1", clusters_per_worker=1),
            "cpw=4": BW_SSSP["hash-qcut"],  # the default, 4k clusters
            "cpw=16": ablation_arm("cpw=16", clusters_per_worker=16),
        },
        measure_ablation,
        (
            Claim(
                "ablation-clusters",
                "every Karger granularity still adapts",
                "4k clusters",
                "{reparts[cpw=1]} / {reparts[cpw=4]} / {reparts[cpw=16]} repartitions "
                "(1k / 4k / 16k clusters)",
                "all(len(r.trace.repartitions) >= 1 for r in results.values())",
            ),
        ),
    ),
)


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------
def scenario_key(scenario: Scenario) -> Scenario:
    """Every field but ``name``: two arms with equal keys are one run."""
    return dataclasses.replace(scenario, name="")


def evaluate(
    experiments: Sequence[Experiment],
    run: Callable[[Scenario], ScenarioResult] = run_scenario,
) -> List[Row]:
    """Run each distinct scenario once, measure, and judge every claim."""
    last_use = {}
    for i, exp in enumerate(experiments):
        for scenario in exp.arms.values():
            last_use[scenario_key(scenario)] = i
    done: Dict[Scenario, ScenarioResult] = {}
    rows = []
    for i, exp in enumerate(experiments):
        results = {}
        for label, scenario in exp.arms.items():
            key = scenario_key(scenario)
            if key not in done:
                done[key] = run(scenario)
            results[label] = done[key]
        namespace = exp.measure(results)
        for claim in exp.claims:
            holds = bool(eval(claim.check, dict(namespace)))
            rows.append(Row(claim, exp.figure, claim.ours.format(**namespace), holds))
        for key in [k for k, last in last_use.items() if last == i]:
            del done[key]
    return rows


# ----------------------------------------------------------------------
# the markdown block
# ----------------------------------------------------------------------
def render(rows: Sequence[Row]) -> str:
    """The table between the markers, markers included."""
    lines = [
        BEGIN,
        "| " + " | ".join(HEADER) + " |",
        "|" + "---|" * len(HEADER),
    ]
    for row in rows:
        c = row.claim
        verdict = f"{row.verdict}: {c.note}" if c.note else row.verdict
        cells = (f"`{c.id}`", row.figure, c.statement, f"`{c.check}`", c.paper,
                 row.ours, verdict)
        lines.append("| " + " | ".join(cells) + " |")
    held = sum(row.holds for row in rows)
    lines += [
        "",
        f"Tally: {held} × holds, {len(rows) - held} × does not hold.",
        END,
    ]
    return "\n".join(lines)


def split_doc(text: str) -> Tuple[str, str, str]:
    """``(before, block, after)`` around the markers (markers in ``block``)."""
    start = text.index(BEGIN)
    stop = text.index(END, start) + len(END)
    return text[:start], text[start:stop], text[stop:]


def verdicts(block: str) -> Dict[str, str]:
    """Claim id -> ``holds`` / ``does not hold`` from a rendered block."""
    out = {}
    for line in block.splitlines():
        if line.startswith("| `"):
            cells = [cell.strip() for cell in line.strip("|").split(" | ")]
            out[cells[0].strip("`")] = cells[-1].split(":")[0]
    return out


def verdict_drift(expected: Mapping[str, str], actual: Mapping[str, str]) -> List[str]:
    """One line per claim whose verdict differs (or that is new / gone)."""
    return [
        f"{claim_id}: checked in {expected.get(claim_id, 'absent')!r}, "
        f"now {actual.get(claim_id, 'absent')!r}"
        for claim_id in sorted(set(expected) | set(actual))
        if expected.get(claim_id) != actual.get(claim_id)
    ]


def main() -> int:
    rows = evaluate(EXPERIMENTS)
    before, checked_in, after = split_doc(DOC.read_text())
    block = render(rows)
    DOC.write_text(before + block + after)
    print(block)
    drift = verdict_drift(verdicts(checked_in), verdicts(block))
    for line in drift:
        print(f"verdict changed: {line}", file=sys.stderr)
    return 1 if drift else 0


if __name__ == "__main__":
    sys.exit(main())
