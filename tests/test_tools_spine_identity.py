"""``tools/spine_identity.py``: the parent-vs-change identity checker."""

import argparse
import copy
import importlib.util
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
    "wall_run_s": 1.5,  # host time: never compared
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
    pairs = [(1, 10.0, 5.0), (2, 8.0, 6.0), (3, 4.0, 4.4)]
    assert tool.timing_lines("churn_recovery", pairs) == [
        "churn_recovery seed 1: wall_run_s 10.00 -> 5.00 (-50%)",
        "churn_recovery seed 2: wall_run_s 8.00 -> 6.00 (-25%)",
        "churn_recovery seed 3: wall_run_s 4.00 -> 4.40 (+10%)",
        # 0.75 is the middle ratio; 8.00 and 5.00 the middle walls
        "churn_recovery: wall_run_s median 8.00 -> 5.00 s, "
        "median change/parent 0.750 over 3 pairs",
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
    # --time: one line per pair and the summary, between the runs and the verdict
    assert lines[1].startswith("open_mixed seed 7: wall_run_s ")
    assert lines[2].startswith("open_mixed: wall_run_s median ")
    assert lines[2].endswith(" over 1 pairs")
    assert lines[-1] == "ALL IDENTICAL" and len(lines) == 4
