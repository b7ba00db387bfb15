"""``tools/spine_identity.py``: the parent-vs-change identity checker."""

import argparse
import copy
import importlib.util
import os
import pathlib

import pytest

ROOT = pathlib.Path(__file__).parent.parent


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "spine_identity", ROOT / "tools" / "spine_identity.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = _load_tool()

RECORD = {
    "wall_run_s": 1.5,  # host time and memory: never compared
    "peak_rss_mb": 120.0,
    "answer_digest": "abc",
    "submitted": 20,
    "unfinished": [],
    "wrong": [],
    "end_to_end": {"vt_makespan_s": 0.25, "vt_locality": 0.5},
    "layers": {"engine.events": 100, "simulation.network.remote_batches": 7},
}


def test_parse_seeds():
    assert tool.parse_seeds("7") == [7]
    assert tool.parse_seeds("1-4") == [1, 2, 3, 4]
    assert tool.parse_seeds("1,3,8-10") == [1, 3, 8, 9, 10]
    with pytest.raises(argparse.ArgumentTypeError):
        tool.parse_seeds("4-1")


def test_differences_ignore_host_time_and_name_every_differing_key():
    other = copy.deepcopy(RECORD)
    other["wall_run_s"] = 9.0
    other["peak_rss_mb"] = 90.0
    assert tool.differences(RECORD, other) == []
    other["layers"]["simulation.network.remote_batches"] = 8
    other["layers"]["engine.checkpoint.capture_calls"] = 3  # only on one side
    other["end_to_end"]["vt_makespan_s"] = 0.2500000000000001
    other["wrong"] = [4]
    assert tool.differences(RECORD, other) == [
        "wrong: [] != [4]",
        "end_to_end.vt_makespan_s: 0.25 != 0.2500000000000001",
        "layers.engine.checkpoint.capture_calls: None != 3",
        "layers.simulation.network.remote_batches: 7 != 8",
    ]


def test_timing_lines_pair_by_seed_and_take_the_median_of_the_ratios():
    pairs = [(1, 10.0, 5.0, "parent"), (2, 8.0, 6.0, "change"), (3, 4.0, 4.4, "parent")]
    assert tool.timing_lines("churn_recovery", pairs) == [
        "churn_recovery seed 1: wall_run_s 10.00 -> 5.00 (-50%), parent first",
        "churn_recovery seed 2: wall_run_s 8.00 -> 6.00 (-25%), change first",
        "churn_recovery seed 3: wall_run_s 4.00 -> 4.40 (+10%), parent first",
        # 0.75 is the middle ratio; 8.00 and 5.00 the middle walls
        "churn_recovery: wall_run_s median 8.00 -> 5.00 s, "
        "median change/parent 0.750 over 3 pairs, lower on 2/3 pairs",
        # [4.7, 5.5] lies wholly below [6, 9]
        "churn_recovery: wall_run_s median 8 [6, 9] -> 5 [4.7, 5.5], resolved",
    ]


def test_timing_lines_report_peak_rss_in_mib():
    pairs = [
        (1, 125.94, 89.71, "parent"),
        (2, 126.2, 90.0, "change"),
        (3, 125.0, 100.0, "parent"),
    ]
    assert tool.timing_lines("static_hotspot", pairs, "peak_rss_mb") == [
        "static_hotspot seed 1: peak_rss_mb 125.9 -> 89.7 (-29%), parent first",
        "static_hotspot seed 2: peak_rss_mb 126.2 -> 90.0 (-29%), change first",
        "static_hotspot seed 3: peak_rss_mb 125.0 -> 100.0 (-20%), parent first",
        # 90.0 / 126.2 is the middle ratio
        "static_hotspot: peak_rss_mb median 125.9 -> 90.0 MiB, "
        "median change/parent 0.713 over 3 pairs, lower on 3/3 pairs",
        "static_hotspot: peak_rss_mb median 125.94 [125.47, 126.07] -> "
        "90 [89.855, 95], resolved",
    ]


def test_timing_lines_count_the_pairs_the_change_is_lower_on():
    """The ≥ 9/10 win count a gain claim needs, read off the summary: a tie
    counts as not lower."""
    pairs = [(seed, 100.0, 90.0, "parent") for seed in range(1, 9)]
    pairs += [(9, 100.0, 100.0, "parent"), (10, 100.0, 101.0, "change")]
    summary = tool.timing_lines("adaptive_disturbance", pairs, "peak_rss_mb")[-2]
    assert summary.endswith(", lower on 8/10 pairs")
    pairs[8] = (9, 100.0, 99.9, "parent")
    summary = tool.timing_lines("adaptive_disturbance", pairs, "peak_rss_mb")[-2]
    assert summary.endswith(", lower on 9/10 pairs")


def test_timing_lines_resolve_a_gain_only_when_the_iqrs_are_disjoint():
    """The other half of a gain claim: the two sides' interquartile ranges
    do not overlap, as for ``vt_*``."""
    steady = [(seed, 10.0 + 0.1 * (seed % 2), 9.0, "parent") for seed in range(1, 11)]
    assert tool.timing_lines("static_hotspot", steady)[-1] == (
        "static_hotspot: wall_run_s median 10.05 [10, 10.1] -> 9 [9, 9], resolved"
    )
    # the parent's runs spread over 2 s: 10/10 lower pairs alone would
    # claim this one, but the two ranges overlap
    noisy = [(seed, 9.0 + 0.25 * seed, 9.0 + 0.2 * seed, "parent") for seed in range(1, 11)]
    lines = tool.timing_lines("static_hotspot", noisy)
    assert lines[-2].endswith(", lower on 10/10 pairs")
    assert lines[-1] == (
        "static_hotspot: wall_run_s median 10.375 [9.8125, 10.9375] -> "
        "10.1 [9.65, 10.55], unresolved"
    )


def test_per_event_line_divides_wall_time_by_the_event_count():
    """Host µs per simulated event, each side's median [Q1, Q3] over the
    pairs: the event path's fixed cost without a traced run."""

    def record(wall, events):
        out = copy.deepcopy(RECORD)
        out["wall_run_s"] = wall
        out["layers"]["engine.events"] = events
        return out

    pairs = [
        (record(2.0, 100_000), record(1.8, 100_000)),  # 20 -> 18 us
        (record(2.2, 100_000), record(1.7, 100_000)),  # 22 -> 17 us
        (record(4.2, 200_000), record(3.8, 200_000)),  # 21 -> 19 us
    ]
    assert tool.per_event_line("static_hotspot", pairs) == (
        "static_hotspot: us per event median 21 [20.5, 21.5] -> 18 [17.5, 18.5], "
        "resolved"
    )


def test_pairs_alternate_which_side_starts_first(monkeypatch, capsys):
    """The parent's child starts first on a workload's 1st, 3rd, ... pair
    and the change's on its 2nd, 4th, ...; every ``--time`` line of a pair
    names the side that started first."""
    parent_dir, change_dir = str(ROOT / "tools"), os.path.abspath(ROOT)
    started = []

    class Finished:
        def poll(self):
            return 0

    def start(checkout, _workload, seed, _smoke):
        started.append((seed, "parent" if checkout == parent_dir else "change"))
        return Finished()

    monkeypatch.setattr(tool, "start_child", start)
    monkeypatch.setattr(tool, "finish_child", lambda *_args: copy.deepcopy(RECORD))
    status = tool.main(
        [parent_dir, change_dir, "--seeds", "1-3", "--workload", "open_mixed", "--time"]
    )
    assert status == 0
    assert started == [
        (1, "parent"), (1, "change"),
        (2, "change"), (2, "parent"),
        (3, "parent"), (3, "change"),
    ]
    lines = capsys.readouterr().out.splitlines()
    for key in tool.HOST_METRICS:
        pair_lines = [line for line in lines if line.startswith("open_mixed seed ")
                      and f": {key} " in line]
        assert [line.rsplit(", ", 1)[1] for line in pair_lines] == [
            "parent first", "change first", "parent first"
        ]
    assert tool.start_order(0) == (0, 1) and tool.start_order(1) == (1, 0)


def test_metric_lines_take_medians_and_count_seeds_by_declared_direction():
    def table(makespan, locality, stall):
        return {"vt_makespan_s": makespan, "vt_locality": locality,
                "vt_stall_s": stall, "latency_samples": 9}

    pairs = [
        (table(1.0, 0.5, 0.2), table(0.8, 0.4, 0.0)),
        (table(1.2, 0.6, 0.1), table(1.3, 0.6, 0.0)),
        (table(1.1, 0.7, 0.3), table(0.9, 0.8, 0.1)),
    ]
    better = {"vt_makespan_s": "lower", "vt_locality": "higher", "wall_run_s": "lower"}
    assert tool.metric_lines("churn_recovery", pairs, better) == [
        # the two ranges overlap on [1.05, 1.1]
        "churn_recovery: vt_makespan_s median 1.1 [1.05, 1.15] -> 0.9 [0.85, 1.1], "
        "unresolved, change better on 2/3 seeds",
        # seed 2 is a tie: it counts for neither side
        "churn_recovery: vt_locality median 0.6 [0.55, 0.65] -> 0.6 [0.5, 0.7], "
        "unresolved, change better on 1/3 seeds",
        # no declared direction: no seed count
        "churn_recovery: vt_stall_s median 0.2 [0.15, 0.25] -> 0 [0, 0.05], "
        "resolved",
    ]


def test_quartiles_interpolate_like_numpy_and_tolerate_one_seed():
    assert tool.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)
    assert tool.quartiles([5.0]) == (5.0, 5.0, 5.0)


def test_spread_text_calls_a_shift_resolved_only_when_the_iqrs_are_disjoint():
    parent = [1.0, 2.0, 3.0, 4.0]  # IQR [1.75, 3.25] around a median of 2.5
    assert tool.spread_text(parent, [4.0, 4.0, 4.0, 4.0]) == (
        "2.5 [1.75, 3.25] -> 4 [4, 4], resolved"
    )
    assert tool.spread_text(parent, [0.5, 0.9, 1.0, 1.2]) == (
        "2.5 [1.75, 3.25] -> 0.95 [0.8, 1.05], resolved"
    )
    # the medians are further apart (1.6) than the parent's IQR (1.5), but
    # the change's own range reaches into the parent's
    assert tool.spread_text(parent, [0.0, 0.5, 0.9, 2.0, 10.0]) == (
        "2.5 [1.75, 3.25] -> 0.9 [0.5, 2], unresolved"
    )


def test_differing_runs_add_the_summary_and_keep_the_verdict(monkeypatch, capsys):
    """Canned records instead of children: the change is faster on both
    seeds, the summary follows the workload's seeds, the verdict and the
    exit status are what they were."""
    change_dir = os.path.abspath(ROOT)

    class Finished:
        def poll(self):
            return 0

    def finish(_child, checkout):
        record = copy.deepcopy(RECORD)
        if checkout == change_dir:
            record["end_to_end"]["vt_makespan_s"] = 0.2
        return record

    monkeypatch.setattr(tool, "start_child", lambda *_args: Finished())
    monkeypatch.setattr(tool, "finish_child", finish)
    status = tool.main(
        [str(ROOT / "tools"), change_dir, "--seeds", "1-2", "--workload", "churn_recovery"]
    )
    assert status == 1
    assert capsys.readouterr().out.splitlines() == [
        "churn_recovery seed 1: DIFFERENT (1 keys)",
        "    end_to_end.vt_makespan_s: 0.25 != 0.2",
        "churn_recovery seed 2: DIFFERENT (1 keys)",
        "    end_to_end.vt_makespan_s: 0.25 != 0.2",
        "churn_recovery: vt_makespan_s median 0.25 [0.25, 0.25] -> 0.2 [0.2, 0.2], "
        "resolved, change better on 2/2 seeds",
        "churn_recovery: vt_locality median 0.5 [0.5, 0.5] -> 0.5 [0.5, 0.5], "
        "unresolved, change better on 0/2 seeds",
        "2 of 2 runs DIFFER",
    ]


def test_a_checkout_is_identical_to_itself(capsys):
    """End to end at smoke size: two children per (workload, seed), run in
    their checkouts, one line each, then the verdict."""
    status = tool.main(
        [str(ROOT), str(ROOT), "--smoke", "--seeds", "7", "--workload", "open_mixed",
         "--time"]
    )
    lines = capsys.readouterr().out.splitlines()
    assert status == 0
    assert lines[0].startswith("open_mixed seed 7: identical (engine.events ")
    # --time: per host metric one line per pair and the summary, between
    # the runs and the verdict
    assert lines[1].startswith("open_mixed seed 7: wall_run_s ")
    assert lines[1].endswith(", parent first")
    assert lines[2].startswith("open_mixed: wall_run_s median ")
    assert " over 1 pairs, lower on " in lines[2]
    assert lines[2].endswith("/1 pairs")
    # one seed: each side's quartiles are its one value, so the verdict
    # only says whether the two values differ
    verdicts = ("resolved", "unresolved")
    assert lines[3].startswith("open_mixed: wall_run_s median ")
    assert lines[3].rsplit(", ", 1)[1] in verdicts
    assert lines[4].startswith("open_mixed seed 7: peak_rss_mb ")
    assert lines[5].startswith("open_mixed: peak_rss_mb median ")
    assert " MiB, median change/parent " in lines[5]
    assert " over 1 pairs, lower on " in lines[5]
    assert lines[5].endswith("/1 pairs")
    assert lines[6].startswith("open_mixed: peak_rss_mb median ")
    assert lines[6].rsplit(", ", 1)[1] in verdicts
    assert lines[7].startswith("open_mixed: us per event median ")
    assert lines[7].rsplit(", ", 1)[1] in verdicts
    assert lines[-1] == "ALL IDENTICAL" and len(lines) == 9
