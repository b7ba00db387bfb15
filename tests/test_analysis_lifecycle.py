"""State-lifecycle analysis tests: inventory, manifest, the four rules.

Differential convention, same as the race suite: every rule is proven in
both directions — a distilled dirty layout fires, the minimally repaired
variant of the *same* layout is clean — so the rules are pinned to the
defect, not to incidental fixture shape.  CLI/baseline integration of the
checked-in fixtures lives in ``tests/test_analysis_project.py``.
"""

import ast
import json
from pathlib import Path

import pytest

from repro.analysis import lint_sources
from repro.analysis.baseline import load_baseline, render_manifest
from repro.analysis.effects import MANIFEST_KINDS, line_followers
from repro.analysis.lifecycle import StateLifecycleAnalysis
from repro.analysis.visitor import (
    FileContext,
    ProjectContext,
    infer_role,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def _project(sources, manifest=None):
    return ProjectContext(
        [
            FileContext.parse(text, path, infer_role(Path(path)))
            for path, text in sorted(sources.items())
        ],
        state_manifest=dict(manifest or {}),
    )


def _rules_of(findings):
    return sorted({v.rule for v in findings})


# one compact engine exercising every lifecycle surface: a dispatcher, a
# runtime class, a checkpoint pair, a finish path and an invariant group
_ENGINE = '''
from typing import Dict, Set

STATE_INVARIANT_GROUPS = (
    ("MiniEngine.assignment", "MiniRuntime.mail"),
)


class MiniRuntime:
    def __init__(self):
        self.cursor: Dict[int, int] = {{}}
        self.mail: Dict[int, Dict[int, int]] = {{}}
        self.acked: Set[int] = set()


class MiniCheckpoint:
    def __init__(self):
        self.cursor = {{}}
        self.mail = {{}}

    @classmethod
    def capture(cls, qr: "MiniRuntime"):
        ck = cls()
        {capture_body}
        return ck

    def restore(self, qr: "MiniRuntime"):
        {restore_body}


class MiniEngine:
    def __init__(self, queue):
        self.queue = queue
        self.assignment: Dict[int, int] = {{}}
        self.runtimes: Dict[int, MiniRuntime] = {{}}
        self.progress: Dict[int, float] = {{}}
        self._handlers = {{"tick": self._on_tick, "rebalance": self._on_rebalance}}

    def step(self):
        event = self.queue.pop()
        self._handlers[event.kind](event.time, event.payload)

    def _on_tick(self, now, payload):
        qr = self.runtimes[payload["query"]]
        qr.cursor[payload["vertex"]] = now
        qr.mail[payload["worker"]] = payload["messages"]
        qr.acked.add(payload["worker"])
        self.progress[payload["query"]] = now
        if payload["done"]:
            self._finish_query(payload["query"])

    def _on_rebalance(self, now, payload):
        {rebalance_body}

    def _finish_query(self, query):
        {finish_body}
'''

_GOOD = dict(
    capture_body="ck.cursor = dict(qr.cursor)\n        ck.mail = dict(qr.mail)",
    restore_body="qr.cursor = dict(self.cursor)\n        qr.mail = dict(self.mail)",
    rebalance_body=(
        "if not payload[\"plan_ok\"]:\n"
        "            raise RuntimeError(\"rejected\")\n"
        "        self.assignment[payload[\"vertex\"]] = payload[\"owner\"]\n"
        "        qr = self.runtimes[payload[\"query\"]]\n"
        "        qr.mail = dict(payload[\"mail\"])"
    ),
    finish_body="self.progress.pop(query, None)",
)

#: MiniRuntime.acked is a barrier transient, deliberately uncheckpointed;
#: the assignment is the cross-query partition map (never per-query)
_MANIFEST = {
    "MiniRuntime.acked": {"kind": "derived", "reason": "barrier transient"},
    "MiniEngine.assignment": {
        "kind": "engine-global",
        "reason": "shared partition map",
    },
}

_LIFECYCLE = ["checkpoint-gap", "restore-asymmetry", "finish-leak", "atomic-mutation"]


def _engine(**overrides):
    parts = dict(_GOOD)
    parts.update(overrides)
    return _ENGINE.format(**parts)


def _lint(source, select=_LIFECYCLE, manifest=_MANIFEST):
    return lint_sources(
        {"src/repro/engine/mini.py": source}, select=select, manifest=manifest
    )


class TestRulesDifferentially:
    def test_well_formed_engine_is_clean(self):
        assert _lint(_engine()) == []

    def test_checkpoint_gap_fires_on_uncaptured_field(self):
        src = _engine(capture_body="ck.cursor = dict(qr.cursor)")
        findings = _lint(src, select=["checkpoint-gap"])
        assert _rules_of(findings) == ["checkpoint-gap"]
        assert "MiniRuntime.mail" in findings[0].message
        assert findings[0].fingerprint == (
            "checkpoint-gap::MiniCheckpoint::MiniRuntime.mail"
        )

    def test_checkpoint_gap_respects_derived_classification(self):
        # acked is handler-written and uncaptured, but classified derived
        findings = _lint(_engine(), select=["checkpoint-gap"])
        assert findings == []
        # ...and fires once the classification is gone (per-query default)
        findings = _lint(_engine(), select=["checkpoint-gap"], manifest={})
        assert [v.fingerprint for v in findings] == [
            "checkpoint-gap::MiniCheckpoint::MiniRuntime.acked"
        ]
        assert "not classified" in findings[0].message

    def test_restore_asymmetry_captured_but_never_restored(self):
        src = _engine(restore_body="qr.cursor = dict(self.cursor)")
        findings = _lint(src, select=["restore-asymmetry"])
        assert [v.fingerprint for v in findings] == [
            "restore-asymmetry::MiniCheckpoint::captured::mail"
        ]

    def test_restore_asymmetry_restored_from_unfilled_slot(self):
        src = _engine(
            capture_body="ck.cursor = dict(qr.cursor)\n        ck.mail = dict(qr.mail)",
            restore_body=(
                "qr.cursor = dict(self.cursor)\n"
                "        qr.mail = dict(self.mail)\n"
                "        qr.acked = set(self.acked)"
            ),
        )
        findings = _lint(src, select=["restore-asymmetry"])
        assert [v.fingerprint for v in findings] == [
            "restore-asymmetry::MiniCheckpoint::restored::acked"
        ]

    def test_restore_reset_from_runtime_itself_is_not_asymmetry(self):
        # the engine idiom: involved/acked rebuilt from the runtime, not
        # from a checkpoint slot — must not read as "restored"
        src = _engine(
            restore_body=(
                "qr.cursor = dict(self.cursor)\n"
                "        qr.mail = dict(self.mail)\n"
                "        qr.acked = set(qr.mail)"
            )
        )
        assert _lint(src, select=["restore-asymmetry"]) == []

    @pytest.mark.parametrize(
        "finish_body",
        [
            "now = self.progress[query]",
            # an alias bound from a slot never invents a release: clearing
            # one entry's value does not release the entry
            "entry = self.progress[query]\n        entry.clear()",
        ],
        ids=["read", "slot-alias"],
    )
    def test_finish_leak_fires_on_unreleased_per_query_map(self, finish_body):
        src = _engine(finish_body=finish_body)
        findings = _lint(src, select=["finish-leak"])
        assert [v.fingerprint for v in findings] == [
            "finish-leak::MiniEngine::MiniEngine.progress"
        ]

    @pytest.mark.parametrize(
        "clearing",
        [
            "self.progress.pop(query, None)",
            "del self.progress[query]",
            "self.progress = {}",
            # the same releases through a local bound from the map
            pytest.param(
                "progress = self.progress\n        progress.pop(query, None)",
                id="aliased-pop",
            ),
            pytest.param(
                "progress = self.progress\n        del progress[query]",
                id="aliased-del",
            ),
        ],
    )
    def test_finish_leak_accepts_every_clearing_shape(self, clearing):
        assert _lint(_engine(finish_body=clearing), select=["finish-leak"]) == []

    def test_finish_leak_respects_engine_global_classification(self):
        manifest = dict(_MANIFEST)
        manifest["MiniEngine.progress"] = {
            "kind": "engine-global",
            "reason": "cross-query metrics",
        }
        src = _engine(finish_body="now = self.progress[query]")
        assert _lint(src, select=["finish-leak"], manifest=manifest) == []

    def test_atomic_mutation_fires_on_raise_between_group_writes(self):
        src = _engine(
            rebalance_body=(
                "self.assignment[payload[\"vertex\"]] = payload[\"owner\"]\n"
                "        if not payload[\"plan_ok\"]:\n"
                "            raise RuntimeError(\"rejected\")\n"
                "        qr = self.runtimes[payload[\"query\"]]\n"
                "        qr.mail = dict(payload[\"mail\"])"
            )
        )
        findings = _lint(src, select=["atomic-mutation"])
        assert [v.fingerprint for v in findings] == [
            "atomic-mutation::repro.engine.mini.MiniEngine._on_rebalance"
            "::MiniEngine.assignment::MiniRuntime.mail"
        ]

    def test_atomic_mutation_clean_when_raise_precedes_all_writes(self):
        # the HEAD fix shape: validate everything, then mutate
        assert _lint(_engine(), select=["atomic-mutation"]) == []

    def test_atomic_mutation_sees_writes_through_helper_calls(self):
        src = _engine(
            rebalance_body=(
                "self.assignment[payload[\"vertex\"]] = payload[\"owner\"]\n"
                "        if not payload[\"plan_ok\"]:\n"
                "            raise RuntimeError(\"rejected\")\n"
                "        self._rehome(payload)\n"
                "\n"
                "    def _rehome(self, payload):\n"
                "        qr = self.runtimes[payload[\"query\"]]\n"
                "        qr.mail = dict(payload[\"mail\"])"
            )
        )
        findings = _lint(src, select=["atomic-mutation"])
        assert [v.fingerprint for v in findings] == [
            "atomic-mutation::repro.engine.mini.MiniEngine._on_rebalance"
            "::MiniEngine.assignment::MiniRuntime.mail"
        ]


class TestExtraction:
    def test_inventory_and_spec(self):
        analysis = StateLifecycleAnalysis(_project(
            {"src/repro/engine/mini.py": _engine()}
        ))
        assert "MiniRuntime.cursor" in analysis.inventory
        assert "MiniRuntime.mail" in analysis.inventory
        assert "MiniEngine.progress" in analysis.inventory
        (spec,) = analysis.specs.values()
        assert spec.runtime_cls.endswith("MiniRuntime")
        assert spec.captured == {"cursor", "mail"}
        assert {"cursor", "mail"} <= spec.restored
        assert analysis.invariant_groups == [
            ("MiniEngine.assignment", "MiniRuntime.mail")
        ]

    def test_exception_classes_stay_out_of_the_inventory(self):
        src = _engine() + (
            "\n\nclass MiniError(Exception):\n"
            "    def __init__(self, detail):\n"
            "        self.detail = detail\n"
        )
        analysis = StateLifecycleAnalysis(_project(
            {"src/repro/engine/mini.py": src}
        ))
        assert not any(a.startswith("MiniError.") for a in analysis.inventory)

    def test_line_followers_cut_at_unconditional_raise(self):
        fn = ast.parse(
            "def f(self):\n"
            "    self.a = 1\n"        # line 2
            "    raise ValueError\n"  # line 3
            "    self.b = 2\n"        # line 4: dead code
        ).body[0]
        followers = line_followers(fn)
        assert 3 in followers[2]
        assert 4 not in followers[2]

    def test_line_followers_keep_conditional_raise_open(self):
        fn = ast.parse(
            "def f(self, bad):\n"
            "    self.a = 1\n"        # line 2
            "    if bad:\n"           # line 3
            "        raise ValueError\n"  # line 4
            "    self.b = 2\n"        # line 5
        ).body[0]
        followers = line_followers(fn)
        assert {4, 5} <= followers[2]


class TestManifestWorkflow:
    def test_render_manifest_merges_and_rots(self):
        project = _project({"src/repro/engine/mini.py": _engine()})
        curated = {
            "MiniRuntime.acked": {"kind": "derived", "reason": "transient"},
            "Gone.attr": {"kind": "engine-global", "reason": "rotted"},
        }
        manifest = render_manifest(project, curated=curated)
        assert manifest["MiniRuntime.acked"] == {
            "kind": "derived",
            "reason": "transient",
        }
        assert "Gone.attr" not in manifest
        assert manifest["MiniRuntime.cursor"] == {
            "kind": "unclassified",
            "reason": "",
        }

    def test_load_rejects_bad_kind_and_missing_reason(self, tmp_path):
        def write(manifest):
            path = tmp_path / "analysis_baseline.json"
            path.write_text(
                json.dumps(
                    {"version": 1, "effects": {}, "state_manifest": manifest}
                )
            )
            return path

        load_baseline(write({"A.x": {"kind": "unclassified", "reason": ""}}))
        with pytest.raises(ValueError, match="needs a kind"):
            load_baseline(write({"A.x": {"kind": "sometimes"}}))
        with pytest.raises(ValueError, match="without a reason"):
            load_baseline(write({"A.x": {"kind": "per-query", "reason": " "}}))

    def test_repo_manifest_covers_the_live_engine_surface(self):
        """The checked-in inventory names the fields recovery depends on."""
        baseline = load_baseline(REPO_ROOT / "analysis_baseline.json")
        manifest = baseline.state_manifest
        assert set(MANIFEST_KINDS) >= {e["kind"] for e in manifest.values()}
        # the one engine-side per-query set, released by _finish_query; the
        # runtime owns every other per-query fact, so the engine keeps no
        # map keyed by query id besides the runtimes registry itself
        assert manifest["QGraphEngine.running"]["kind"] == "per-query"
        assert manifest["QGraphEngine.runtimes"]["kind"] == "engine-global"
        for attr in (
            "QGraphEngine._checkpoints",
            "QGraphEngine._activated",
            "QGraphEngine._inflight",
        ):
            assert attr not in manifest, attr
        # ...as transients of the runtime, rebuilt or dropped, not captured
        for attr in (
            "QueryRuntime.checkpoint",
            "QueryRuntime.activated",
            "QueryRuntime.inflight",
        ):
            assert manifest[attr]["kind"] == "derived", attr
        # the seven checkpointed runtime fields
        for attr in (
            "QueryRuntime.iteration",
            "QueryRuntime.mailboxes",
            "QueryRuntime.next_mailboxes",
            "QueryRuntime.pending_remote_inbound",
            "QueryRuntime.agg_committed",
            "QueryRuntime.kstate",
            "QueryRuntime.scope_mask",
        ):
            assert manifest[attr]["kind"] == "per-query", attr
        assert "QueryRuntime.scope" not in manifest
        # barrier transients rebuilt by reset_barrier_protocol()
        assert manifest["QueryRuntime.barrier_epoch"]["kind"] == "derived"
        assert manifest["QueryRuntime.acked"]["kind"] == "derived"
