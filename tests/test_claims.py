"""``benchmarks/claims.py``: the claims table's arms, rendering and check.

Nothing here runs a scenario: the arms are validated structurally, the
one-run-per-distinct-scenario rule is checked with a stub runner, and the
rendering / verdict comparison runs on hand-made rows.
"""

import dataclasses

from benchmarks import claims
from repro.bench import Scenario
from repro.simulation.cluster import make_cluster

ALL_CLAIMS = [c for exp in claims.EXPERIMENTS for c in exp.claims]
ALL_ARMS = [s for exp in claims.EXPERIMENTS for s in exp.arms.values()]


def fake_rows(flip=None):
    """One row per real claim, every verdict ``holds`` except ``flip``."""
    return [
        claims.Row(claim, exp.figure, "1.0", claim.id != flip)
        for exp in claims.EXPERIMENTS
        for claim in exp.claims
    ]


def checked_in_block():
    _before, block, _after = claims.split_doc(claims.DOC.read_text())
    return block


def test_arms_are_valid_scenarios():
    for scenario in ALL_ARMS:
        assert isinstance(scenario, Scenario)
        assert scenario.graph_preset in ("bw", "gy")
        assert scenario.partitioner in ("hash", "domain", "ldg")
        assert scenario.workload in ("sssp", "poi")
        assert make_cluster(scenario.infrastructure, scenario.k).num_workers == scenario.k
        scenario.controller_config()  # rejects unknown or invalid overrides


def test_each_distinct_scenario_runs_once():
    calls = []

    def stub_run(scenario):
        calls.append(claims.scenario_key(scenario))
        return object()

    probes = [
        dataclasses.replace(exp, measure=lambda results: {}, claims=())
        for exp in claims.EXPERIMENTS
    ]
    claims.evaluate(probes, run=stub_run)
    distinct = {claims.scenario_key(s) for s in ALL_ARMS}
    assert sorted(map(repr, calls)) == sorted(map(repr, distinct))
    # the BW/SSSP arms are shared by Fig. 6a, 6e, 6f and the ablation
    assert len(distinct) < len(ALL_ARMS)


def test_shared_results_reach_every_experiment():
    """A scenario shared by two experiments hands both the same result."""
    seen = {}

    def measure(results):
        for label, result in results.items():
            seen.setdefault(id(result), set()).add(label)
        return {}

    probes = [
        claims.Experiment("a", {"x": claims.BW_SSSP["hash-qcut"]}, measure, ()),
        claims.Experiment("b", {"y": claims.BALANCE_ARMS["qcut"]}, measure, ()),
    ]
    claims.evaluate(probes, run=lambda scenario: object())
    assert list(seen.values()) == [{"x", "y"}]


def test_claim_ids_unique_and_checks_compile():
    ids = [c.id for c in ALL_CLAIMS]
    assert len(ids) == len(set(ids))
    for claim in ALL_CLAIMS:
        compile(claim.check, claim.id, "eval")


def test_predicate_and_template_read_the_namespace():
    exp = claims.Experiment(
        "Fig. X",
        {"arm": claims.BW_SSSP["hash-static"]},
        lambda results: {"value": 0.5, "results": results},
        (
            claims.Claim("x-holds", "s", "p", "{value:.2f}", "value < 1"),
            claims.Claim("x-fails", "s", "p", "{value:.0%}", '"arm" not in results'),
        ),
    )
    rows = claims.evaluate([exp], run=lambda scenario: object())
    assert [(r.ours, r.holds) for r in rows] == [("0.50", True), ("50%", False)]


def test_rendering_is_deterministic_and_round_trips():
    rows = fake_rows(flip="fig6g-balance")
    block = claims.render(rows)
    assert block == claims.render(fake_rows(flip="fig6g-balance"))
    assert block.startswith(claims.BEGIN) and block.endswith(claims.END)
    assert claims.verdicts(block) == {r.claim.id: r.verdict for r in rows}


def test_checked_in_table_lists_every_claim_in_order():
    assert list(claims.verdicts(checked_in_block())) == [c.id for c in ALL_CLAIMS]


def test_flipped_verdict_fails_the_check():
    block = checked_in_block()
    doctored = block.replace("| holds |", "| does not hold |", 1)
    assert doctored != block
    drift = claims.verdict_drift(claims.verdicts(block), claims.verdicts(doctored))
    assert len(drift) == 1 and "'holds'" in drift[0]


def test_missing_row_fails_the_check():
    block = checked_in_block()
    lines = block.splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("| `"))
    doctored = "\n".join(lines[:row] + lines[row + 1 :])
    drift = claims.verdict_drift(claims.verdicts(block), claims.verdicts(doctored))
    assert len(drift) == 1 and "absent" in drift[0]


def test_fig6g_balance_is_the_one_row_that_does_not_hold():
    """The known ILS defect (strict xfail in ``test_core_ils``) and nothing else."""
    verdicts = claims.verdicts(checked_in_block())
    failing = [claim_id for claim_id, v in verdicts.items() if v != "holds"]
    assert failing == ["fig6g-balance"]
    assert set(verdicts.values()) == {"holds", "does not hold"}


def test_cells_carry_no_column_separator():
    for claim in ALL_CLAIMS:
        for text in (claim.id, claim.statement, claim.paper, claim.ours, claim.check, claim.note):
            assert "|" not in text, claim.id


def test_ablation_default_arms_are_the_shared_qcut_run():
    """The paper-value arms of the ablation are the plain Q-cut arm."""
    keys = {
        claims.scenario_key(s)
        for exp in claims.EXPERIMENTS
        if exp.figure.startswith("Ablation")
        for label, s in exp.arms.items()
        if label in ("delta=0.25", "phi=0.7 (paper)", "cpw=4")
    }
    assert keys == {claims.scenario_key(claims.BW_SSSP["hash-qcut"])}

