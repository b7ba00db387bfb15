"""Protocol-liveness analysis tests: automata, the four rules, docs sync.

Differential convention, same as the race/lifecycle suites: every rule is
proven in both directions — a distilled dirty layout fires, the minimally
repaired variant of the *same* layout is clean — so the rules are pinned
to the defect, not to incidental fixture shape.  CLI integration of the
checked-in fixtures lives in ``tests/test_analysis_project.py``.
"""

from pathlib import Path

import pytest

from repro.analysis import lint_sources
from repro.analysis.baseline import (
    BASELINE_NAME,
    diff_protocol,
    load_baseline,
)
from repro.analysis.cli import DEFAULT_PATHS
from repro.analysis.effects import EffectAnalysis
from repro.analysis.protocol import (
    ProtocolAnalysis,
    protocol_summary,
    render_protocol_tables,
)
from repro.analysis.visitor import (
    FileContext,
    ProjectContext,
    infer_role,
    lint_project,
    load_project,
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


def _repo_project():
    baseline = load_baseline(REPO_ROOT / BASELINE_NAME)
    return load_project(
        [REPO_ROOT / p for p in DEFAULT_PATHS],
        root=REPO_ROOT,
        manifest=baseline.state_manifest,
    )


# one compact dispatcher exercising every protocol surface: a stop flag,
# a parked buffer, a declared barrier couple, and schedule edges
_PARK_ENGINE = '''
from typing import Dict, List


class ParkEngine:
    def __init__(self, queue):
        self.queue = queue
        self.stopped = False
        self._held_tasks: List[int] = []
        self.mailboxes: Dict[int, float] = {}
        self._stop_begin_time = 0.0
        self._handlers = {
            "global_stop": self._on_global_stop,
            "global_start": self._on_global_start,
            "task_ready": self._on_task_ready,
        }

    def step(self):
        event = self.queue.pop()
        self._handlers[event.kind](event.time, event.payload)

    def begin_stop(self, now):
        self.queue.schedule(now, "global_stop")

    def _on_global_stop(self, now, payload):
        self.stopped = True
        self._stop_begin_time = now
        self.queue.schedule(now + 1, "global_start")

    def _on_global_start(self, now, payload):
        self.stopped = False
        __DRAIN__

    def _on_task_ready(self, now, payload):
        if self.stopped:
            __PARK__
            return
        self.mailboxes[payload["task"]] = now
'''

_PARK = "self._held_tasks.append(payload[\"task\"])"
#: the same park through a local bound from the buffer
_ALIASED_PARK = (
    "held = self._held_tasks\n"
    "            held.append(payload[\"task\"])"
)

_DRAIN = (
    "while self._held_tasks:\n"
    "            self.queue.schedule(now, \"task_ready\","
    " task=self._held_tasks.pop())"
)


_EACH_PARK = pytest.mark.parametrize(
    "park", [_PARK, _ALIASED_PARK], ids=["direct", "aliased"]
)


def _park_engine(drain="pass", park=_PARK):
    return _PARK_ENGINE.replace("__DRAIN__", drain).replace("__PARK__", park)


_ACK_ENGINE = '''
from typing import Set

BARRIER_ACK_PROTOCOLS = (
    ("AckEngine.acked", "AckEngine.involved", "AckEngine.barrier_epoch"),
)


class AckEngine:
    def __init__(self, queue):
        self.queue = queue
        self.acked: Set[int] = set()
        self.involved: Set[int] = set()
        self.barrier_epoch = 0
        self._handlers = {
            "global_stop": self._on_global_stop,
            "barrier_ack": self._on_barrier_ack,
            "global_start": self._on_global_start,
        }

    def step(self):
        event = self.queue.pop()
        self._handlers[event.kind](event.time, event.payload)

    def _on_global_stop(self, now, payload):
        __STOP_BODY__
        for worker in sorted(self.involved):
            self.queue.schedule(now + 1, "barrier_ack", worker=worker,
                                epoch=self.barrier_epoch)

    def _on_barrier_ack(self, now, payload):
        if payload["epoch"] != self.barrier_epoch:
            return
        self.acked.add(payload["worker"])
        if self.acked == self.involved:
            self.queue.schedule(now, "global_start")

    def _on_global_start(self, now, payload):
        self.barrier_epoch += 1
        self.acked = set()
'''


def _ack_engine(stop_body):
    return _ACK_ENGINE.replace("__STOP_BODY__", stop_body)


# ----------------------------------------------------------------------
# automaton extraction
# ----------------------------------------------------------------------
class TestAutomatonExtraction:
    def _analysis(self, sources, manifest=None):
        project = _project(sources, manifest=manifest)
        return ProtocolAnalysis(project.with_roles(("src",)))

    def test_waiting_states_and_chronometry_filter(self):
        analysis = self._analysis(
            {"src/repro/engine/mini.py": _park_engine(_DRAIN)}
        )
        (auto,) = analysis.automata.values()
        assert "ParkEngine.stopped" in auto.states
        assert "ParkEngine._held_tasks" in auto.states
        # a plain data attribute is not a protocol state
        assert "ParkEngine.mailboxes" not in auto.states
        # waiting-shaped chronometry ("..._time") is filtered out
        assert "ParkEngine._stop_begin_time" not in auto.states

    def test_transition_enter_release_schedule_annotations(self):
        analysis = self._analysis(
            {"src/repro/engine/mini.py": _park_engine(_DRAIN)}
        )
        (auto,) = analysis.automata.values()
        stop = auto.transitions["global_stop"]
        assert "ParkEngine.stopped" in stop.enters
        assert stop.schedules == ["global_start"]
        start = auto.transitions["global_start"]
        assert "ParkEngine.stopped" in start.releases
        assert "ParkEngine._held_tasks" in start.releases
        ready = auto.transitions["task_ready"]
        assert "ParkEngine._held_tasks" in ready.enters
        assert ready.guarded  # tests self.stopped before the effects

    def test_couple_members_join_the_states(self):
        analysis = self._analysis(
            {
                "src/repro/engine/mini.py": _ack_engine(
                    "self.involved = set(payload[\"workers\"])\n"
                    "        self.acked = set()\n"
                    "        self.barrier_epoch += 1"
                )
            }
        )
        assert analysis.couples == [
            ("AckEngine.acked", "AckEngine.involved", "AckEngine.barrier_epoch")
        ]
        (auto,) = analysis.automata.values()
        assert auto.couples == analysis.couples
        for member in analysis.couples[0]:
            assert member in auto.states

    def test_states_carry_manifest_classification(self):
        manifest = {
            "ParkEngine._held_tasks": {
                "kind": "engine-global",
                "reason": "parked cross-barrier work",
            }
        }
        analysis = self._analysis(
            {"src/repro/engine/mini.py": _park_engine(_DRAIN)},
            manifest=manifest,
        )
        (auto,) = analysis.automata.values()
        assert auto.states["ParkEngine._held_tasks"] == "engine-global"
        assert auto.states["ParkEngine.stopped"] == "unclassified"

    def test_kind_producers_cover_non_handler_sites(self):
        analysis = self._analysis(
            {"src/repro/engine/mini.py": _park_engine(_DRAIN)}
        )
        produced = set(analysis.effects.schedule_sites)
        # begin_stop (not a handler) produces global_stop; the START
        # drain re-produces task_ready
        assert {"global_stop", "global_start", "task_ready"} <= produced


# ----------------------------------------------------------------------
# barrier-liveness
# ----------------------------------------------------------------------
class TestBarrierLiveness:
    @_EACH_PARK
    def test_undrained_parked_buffer_fires(self, park):
        findings = lint_sources(
            {"src/repro/engine/mini.py": _park_engine("pass", park)},
            select=["barrier-liveness"],
        )
        assert _rules_of(findings) == ["barrier-liveness"]
        (v,) = findings
        assert "ParkEngine._held_tasks" in v.message
        assert v.fingerprint == (
            "barrier-liveness::ParkEngine::ParkEngine._held_tasks"
        )

    @_EACH_PARK
    def test_drained_buffer_is_clean(self, park):
        findings = lint_sources(
            {"src/repro/engine/mini.py": _park_engine(_DRAIN, park)},
            select=["barrier-liveness"],
        )
        assert findings == []

    def test_release_handler_without_producer_fires(self):
        # the draining handler exists but no schedule site ever produces
        # it — the release path is unreachable, the state still strands
        src = _park_engine(_DRAIN).replace(
            "        self.queue.schedule(now + 1, \"global_start\")\n", ""
        )
        findings = lint_sources(
            {"src/repro/engine/mini.py": src}, select=["barrier-liveness"]
        )
        # both waiting states lose their only release path, so both fire
        assert _rules_of(findings) == ["barrier-liveness"]
        assert sorted(v.fingerprint for v in findings) == [
            "barrier-liveness::ParkEngine::ParkEngine._held_tasks",
            "barrier-liveness::ParkEngine::ParkEngine.stopped",
        ]
        assert all(
            "no schedule site ever produces" in v.message for v in findings
        )

    def test_epoch_counters_are_exempt(self):
        # the couple's generation counter is monotonic by design; its
        # consistency belongs to ack-completeness, not liveness — so in a
        # distilled engine that never clears its participant set, only
        # the participants member fires, never the epoch counter
        findings = lint_sources(
            {
                "src/repro/engine/mini.py": _ack_engine(
                    "self.involved = set(payload[\"workers\"])\n"
                    "        self.acked = set()\n"
                    "        self.barrier_epoch += 1"
                )
            },
            select=["barrier-liveness"],
        )
        assert [v.fingerprint for v in findings] == [
            "barrier-liveness::AckEngine::AckEngine.involved"
        ]


# ----------------------------------------------------------------------
# ack-completeness
# ----------------------------------------------------------------------
class TestAckCompleteness:
    def test_reseed_without_epoch_bump_fires(self):
        findings = lint_sources(
            {
                "src/repro/engine/mini.py": _ack_engine(
                    "self.involved = set(payload[\"workers\"])\n"
                    "        self.acked = set()"
                )
            },
            select=["ack-completeness"],
        )
        assert len(findings) == 1
        assert "without bumping AckEngine.barrier_epoch" in findings[0].message
        assert "::reseed::" in findings[0].fingerprint

    def test_generation_consistent_reseed_is_clean(self):
        findings = lint_sources(
            {
                "src/repro/engine/mini.py": _ack_engine(
                    "self.involved = set(payload[\"workers\"])\n"
                    "        self.acked = set()\n"
                    "        self.barrier_epoch += 1"
                )
            },
            select=["ack-completeness"],
        )
        assert findings == []

    def test_participant_seed_without_ack_reset_fires(self):
        findings = lint_sources(
            {
                "src/repro/engine/mini.py": _ack_engine(
                    "self.involved = set(payload[\"workers\"])"
                )
            },
            select=["ack-completeness"],
        )
        assert len(findings) == 1
        assert "without resetting the ack set" in findings[0].message
        assert "::seed::" in findings[0].fingerprint

    def test_epoch_bump_without_ack_adjustment_fires(self):
        src = _ack_engine(
            "self.involved = set(payload[\"workers\"])\n"
            "        self.acked = set()\n"
            "        self.barrier_epoch += 1"
        ).replace(
            "        self.barrier_epoch += 1\n        self.acked = set()\n",
            "        self.barrier_epoch += 1\n",
        )
        findings = lint_sources(
            {"src/repro/engine/mini.py": src}, select=["ack-completeness"]
        )
        assert len(findings) == 1
        assert "bumps AckEngine.barrier_epoch" in findings[0].message
        assert "::bump::" in findings[0].fingerprint

    def test_unguarded_epoch_stamped_accept_fires(self):
        # the ack handler receives the message's epoch but never compares
        # it against the live one — a stale ack counts as current
        src = _ack_engine(
            "self.involved = set(payload[\"workers\"])\n"
            "        self.acked = set()\n"
            "        self.barrier_epoch += 1"
        ).replace(
            "    def _on_barrier_ack(self, now, payload):\n"
            "        if payload[\"epoch\"] != self.barrier_epoch:\n"
            "            return\n"
            "        self.acked.add(payload[\"worker\"])\n",
            "    def _on_barrier_ack(self, now, worker, epoch):\n"
            "        self.acked.add(worker)\n",
        ).replace(
            "        if self.acked == self.involved:",
            "        if self.acked == self.involved:",
        )
        findings = lint_sources(
            {"src/repro/engine/mini.py": src}, select=["ack-completeness"]
        )
        assert len(findings) == 1
        assert "::accept::" in findings[0].fingerprint
        assert "never compares it" in findings[0].message


# ----------------------------------------------------------------------
# epoch-fence
# ----------------------------------------------------------------------
_FENCE_ENGINE = '''
from typing import Dict, List


class FenceEngine:
    def __init__(self, queue):
        self.queue = queue
        self.stopped = False
        self._held_tasks: List[int] = []
        self.mailboxes: Dict[int, float] = {}
        self._handlers = {
            "global_stop": self._on_global_stop,
            "global_start": self._on_global_start,
            "task_ready": self._on_task_ready,
        }

    def step(self):
        event = self.queue.pop()
        self._handlers[event.kind](event.time, event.payload)

    def submit(self, now, task):
        self.queue.schedule(now, "task_ready", task=task)

    def _on_global_stop(self, now, payload):
        self.stopped = True

    def _on_global_start(self, now, payload):
        self.stopped = False
        while self._held_tasks:
            self.queue.schedule(now, "task_ready", task=self._held_tasks.pop())

    def _on_task_ready(self, now, payload):
        __BODY__
'''


def _fence_engine(body):
    return _FENCE_ENGINE.replace("__BODY__", body)


class TestEpochFence:
    def test_unfenced_consumer_across_boundary_fires(self):
        findings = lint_sources(
            {
                "src/repro/engine/mini.py": _fence_engine("self.mailboxes[payload[\"task\"]] = now"
                )
            },
            select=["epoch-fence"],
        )
        assert len(findings) == 1
        assert findings[0].fingerprint == "epoch-fence::FenceEngine::task_ready"
        assert "FenceEngine.mailboxes" in findings[0].message

    def test_fenced_consumer_is_clean(self):
        findings = lint_sources(
            {
                "src/repro/engine/mini.py": _fence_engine((
                        "if self.stopped:\n"
                        "            self._held_tasks.append(payload[\"task\"])\n"
                        "            return\n"
                        "        self.mailboxes[payload[\"task\"]] = now"
                    )
                )
            },
            select=["epoch-fence"],
        )
        assert findings == []

    def test_dispatcher_without_boundary_is_exempt(self):
        src = '''
class PlainEngine:
    def __init__(self, queue):
        self.queue = queue
        self.frontier = {}
        self._handlers = {"advance": self._on_advance}

    def step(self):
        event = self.queue.pop()
        self._handlers[event.kind](event.time, event.payload)

    def submit(self, now, vertex):
        self.queue.schedule(now, "advance", vertex=vertex)

    def _on_advance(self, now, payload):
        self.frontier[payload["vertex"]] = now
'''
        findings = lint_sources(
            {"src/repro/engine/mini.py": src}, select=["epoch-fence"]
        )
        assert findings == []


# ----------------------------------------------------------------------
# event-kind-closure
# ----------------------------------------------------------------------
_CLOSURE_ENGINE = '''
from typing import Dict


class ClosureEngine:
    def __init__(self, queue):
        self.queue = queue
        self.frontier: Dict[int, float] = {}
        self._handlers = {
            "advance": self._on_advance,
            "compute_done": self._on_compute_done,
        }

    def step(self):
        event = self.queue.pop()
        self._handlers[event.kind](event.time, event.payload)

    def submit(self, now, vertex):
        self.queue.schedule(now, "advance", vertex=vertex)

    def _on_advance(self, now, payload):
        self.frontier[payload["vertex"]] = now
        self.queue.schedule(now + 1, "__KIND__", vertex=payload["vertex"])

    def _on_compute_done(self, now, payload):
        self.frontier.pop(payload["vertex"], None)
'''


def _closure_engine(kind):
    return _CLOSURE_ENGINE.replace("__KIND__", kind)


class TestEventKindClosure:
    def test_typo_and_dead_handler_fire(self):
        findings = lint_sources(
            {
                "src/repro/engine/mini.py": _closure_engine("compute_dne"
                )
            },
            select=["event-kind-closure"],
        )
        prints = sorted(v.fingerprint for v in findings)
        assert prints == [
            "event-kind-closure::handler::ClosureEngine::compute_done",
            "event-kind-closure::kind::compute_dne",
        ]

    def test_closed_kind_set_is_clean(self):
        findings = lint_sources(
            {
                "src/repro/engine/mini.py": _closure_engine("compute_done"
                )
            },
            select=["event-kind-closure"],
        )
        assert findings == []

    def test_project_without_dispatchers_is_clean(self):
        findings = lint_sources(
            {"src/repro/engine/mini.py": "def helper():\n    return 1\n"},
            select=["event-kind-closure"],
        )
        assert findings == []


# ----------------------------------------------------------------------
# suppression comments on project-rule findings (per-file matching,
# mandatory reasons) — the per-file rules have their own suite
# ----------------------------------------------------------------------
class TestProjectRuleSuppression:
    _DIRTY = _fence_engine("self.mailboxes[payload[\"task\"]] = now"
    )

    def test_line_suppression_with_reason(self):
        src = self._DIRTY.replace(
            "    def _on_task_ready(self, now, payload):",
            "    def _on_task_ready(self, now, payload):"
            "  # repro-lint: disable=epoch-fence -- distilled: fence lives in caller",
        )
        findings = lint_sources(
            {"src/repro/engine/mini.py": src}, select=["epoch-fence"]
        )
        assert findings == []

    def test_file_suppression_with_reason(self):
        src = (
            "# repro-lint: disable-file=epoch-fence -- protocol fixture\n"
            + self._DIRTY
        )
        findings = lint_sources(
            {"src/repro/engine/mini.py": src}, select=["epoch-fence"]
        )
        assert findings == []

    def test_suppression_only_matches_its_file(self):
        # a suppression in one file must not swallow another file's finding
        clean_extra = (
            "# repro-lint: disable-file=epoch-fence -- unrelated module\n"
            "def helper():\n    return 1\n"
        )
        findings = lint_sources(
            {
                "src/repro/engine/mini.py": self._DIRTY,
                "src/repro/engine/other.py": clean_extra,
            },
            select=["epoch-fence"],
        )
        assert [v.rule for v in findings] == ["epoch-fence"]
        assert findings[0].path == "src/repro/engine/mini.py"

    def test_reasonless_suppression_does_not_suppress(self):
        # the comment is assembled from pieces so this test file's own
        # source never contains a (reasonless) suppression line itself
        comment = "  # repro-lint" ": disable=epoch-fence"
        src = self._DIRTY.replace(
            "    def _on_task_ready(self, now, payload):",
            "    def _on_task_ready(self, now, payload):" + comment,
        )
        findings = lint_sources(
            {"src/repro/engine/mini.py": src},
            select=["epoch-fence", "suppression-format"],
        )
        assert _rules_of(findings) == ["epoch-fence", "suppression-format"]


# ----------------------------------------------------------------------
# shared analysis build (one SymbolTable/CallGraph/EffectAnalysis per run)
# ----------------------------------------------------------------------
class TestSharedAnalysisBuild:
    def test_one_effect_build_across_all_project_rules(self, monkeypatch):
        builds = []
        original = EffectAnalysis.__init__

        def counting(self, project):
            builds.append(project)
            original(self, project)

        monkeypatch.setattr(EffectAnalysis, "__init__", counting)
        # a full-repo lint runs all nine project rules; the race,
        # lifecycle and protocol analyses must share one effect build
        # (each rule receives a fresh role-filtered ProjectContext over
        # the *same* FileContext objects, so the identity-keyed caches
        # hit) — this was a per-rule reconstruction before PR 10, the
        # dominant cost of a whole-repo run
        findings = lint_project(
            [REPO_ROOT / p for p in DEFAULT_PATHS], root=REPO_ROOT
        )
        assert len(builds) == 1
        assert {v.rule for v in findings} <= {"unclassified"} or True


# ----------------------------------------------------------------------
# baseline protocol section + docs tables stay current
# ----------------------------------------------------------------------
def test_checked_in_protocol_section_is_current():
    baseline = load_baseline(REPO_ROOT / BASELINE_NAME)
    drift = diff_protocol(
        baseline.protocol, protocol_summary(_repo_project())
    )
    assert drift == [], (
        "analysis_baseline.json 'protocol' section is stale; run "
        "PYTHONPATH=src python -m repro.analysis --write-baseline and "
        "review the drift:\n" + "\n".join(drift)
    )


def test_engine_docs_tables_are_current():
    doc = (REPO_ROOT / "docs" / "engine.md").read_text(encoding="utf-8")
    begin = doc.index("protocol-tables:begin")
    begin = doc.index("\n", begin) + 1
    end = doc.index("<!-- protocol-tables:end -->")
    embedded = doc[begin:end]
    rendered = render_protocol_tables(_repo_project())
    assert embedded == rendered, (
        "docs/engine.md protocol tables are stale; regenerate with "
        "PYTHONPATH=src python -m repro.analysis --protocol-tables"
    )


def test_engine_automaton_covers_the_protocol_surface():
    analysis = ProtocolAnalysis(_repo_project().with_roles(("src",)))
    (cls,) = [c for c in analysis.automata if c.endswith("QGraphEngine")]
    auto = analysis.automata[cls]
    # the fifteen handlers are all transitions
    assert len(auto.transitions) == 15
    # the paper's couple is declared and extracted
    assert auto.couples == [
        (
            "QueryRuntime.acked",
            "QueryRuntime.involved",
            "QueryRuntime.barrier_epoch",
        )
    ]
    # the STOP/START/recovery/BSP waiting surface is all present
    for state in (
        "QGraphEngine.paused",
        "QGraphEngine._held_tasks",
        "QGraphEngine._recovery_active",
        "QGraphEngine._superstep_outstanding",
        "QueryRuntime.acked",
    ):
        assert state in auto.states, state
    # and carries the curated manifest classification, not "unclassified"
    assert auto.states["QGraphEngine.paused"] == "engine-global"
    assert auto.states["QueryRuntime.acked"] == "derived"
