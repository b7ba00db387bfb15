"""Whole-program analysis tests: call graph, RNG stream flow, races.

The state-lifecycle rules (checkpoint-gap, restore-asymmetry, finish-leak,
atomic-mutation) have their own unit suite in
``tests/test_analysis_lifecycle.py``; this module covers their CLI /
baseline / catalog integration alongside the PR 8 analyses.

Fixture convention: multi-file layouts go through
:func:`repro.analysis.lint_sources` (in-memory, paths carry the role and
subsystem), single-file distilled historical bugs are checked in under
``tests/fixtures/analysis/`` and driven through the real CLI so the
acceptance contract — naming a fixture exits 1, the repository exits 0 —
is what the suite actually asserts.
"""

import json
import subprocess
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import lint_sources
from repro.analysis.baseline import (
    BASELINE_NAME,
    diff_effects,
    diff_manifest,
    load_baseline,
    render_baseline,
    render_manifest,
)
from repro.analysis.callgraph import project_graph, subsystem_of
from repro.analysis.cli import DEFAULT_PATHS, main as cli_main
from repro.analysis.effects import EffectAnalysis, effect_analysis_for
from repro.analysis.protocol import protocol_summary
from repro.analysis.visitor import (
    FileContext,
    ProjectContext,
    all_project_rules,
    infer_role,
    lint_project,
    load_project,
)
from repro.engine import QGraphEngine
from repro.graph import grid_graph
from repro.simulation.cluster import make_cluster

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "analysis"


def _project(sources):
    return ProjectContext(
        [
            FileContext.parse(text, path, infer_role(Path(path)))
            for path, text in sorted(sources.items())
        ]
    )


def _rules_of(findings):
    return sorted({v.rule for v in findings})


# ----------------------------------------------------------------------
# call graph: symbol resolution
# ----------------------------------------------------------------------
class TestCallGraph:
    def test_import_alias_edge(self):
        project = _project(
            {
                "src/pkga/util.py": "def helper():\n    return 1\n",
                "src/pkga/main.py": (
                    "from pkga.util import helper as h\n"
                    "def run():\n"
                    "    return h()\n"
                ),
            }
        )
        _table, graph = project_graph(project)
        assert "pkga.util.helper" in graph.edges["pkga.main.run"]

    def test_module_alias_edge(self):
        project = _project(
            {
                "src/pkga/util.py": "def helper():\n    return 1\n",
                "src/pkga/main.py": (
                    "import pkga.util as u\n"
                    "def run():\n"
                    "    return u.helper()\n"
                ),
            }
        )
        _table, graph = project_graph(project)
        assert "pkga.util.helper" in graph.edges["pkga.main.run"]

    def test_self_dispatch(self):
        project = _project(
            {
                "src/pkga/eng.py": (
                    "class Engine:\n"
                    "    def run(self):\n"
                    "        self.step()\n"
                    "    def step(self):\n"
                    "        pass\n"
                ),
            }
        )
        _table, graph = project_graph(project)
        assert "pkga.eng.Engine.step" in graph.edges["pkga.eng.Engine.run"]

    def test_inherited_method_resolution(self):
        project = _project(
            {
                "src/pkga/base.py": (
                    "class Base:\n"
                    "    def shared(self):\n"
                    "        pass\n"
                ),
                "src/pkga/sub.py": (
                    "from pkga.base import Base\n"
                    "class Derived(Base):\n"
                    "    def run(self):\n"
                    "        self.shared()\n"
                ),
            }
        )
        _table, graph = project_graph(project)
        assert "pkga.base.Base.shared" in graph.edges["pkga.sub.Derived.run"]

    def test_typed_attribute_call(self):
        project = _project(
            {
                "src/pkga/parts.py": (
                    "class Worker:\n"
                    "    def tick(self):\n"
                    "        pass\n"
                ),
                "src/pkga/eng.py": (
                    "from pkga.parts import Worker\n"
                    "class Engine:\n"
                    "    def __init__(self):\n"
                    "        self.worker = Worker()\n"
                    "    def run(self):\n"
                    "        self.worker.tick()\n"
                ),
            }
        )
        _table, graph = project_graph(project)
        assert "pkga.parts.Worker.tick" in graph.edges["pkga.eng.Engine.run"]

    def test_transitive_closure(self):
        project = _project(
            {
                "src/pkga/chain.py": (
                    "def a():\n    b()\n"
                    "def b():\n    c()\n"
                    "def c():\n    pass\n"
                ),
            }
        )
        _table, graph = project_graph(project)
        assert graph.transitive("pkga.chain.a") >= {
            "pkga.chain.a",
            "pkga.chain.b",
            "pkga.chain.c",
        }

    def test_unresolvable_call_has_no_edge(self):
        # under-approximation: an unknown callee must not invent edges
        project = _project(
            {
                "src/pkga/ext.py": (
                    "import os\n"
                    "def run(cb):\n"
                    "    cb()\n"
                    "    os.getpid()\n"
                ),
            }
        )
        _table, graph = project_graph(project)
        assert graph.edges["pkga.ext.run"] == set()

    def test_subsystem_of(self):
        assert subsystem_of("repro.workload.generator") == "workload"
        assert subsystem_of("repro.engine.engine") == "engine"
        assert subsystem_of("tests.fixtures.analysis.x") == "tests"

    def test_real_engine_dispatch_table_is_complete(self):
        project = load_project([REPO_ROOT / "src"], root=REPO_ROOT)
        analysis = EffectAnalysis(project)
        # the engine's declared kind -> handler table, read statically: a
        # kind missing here means the race detector silently stopped
        # seeing a handler
        engine = "repro.engine.engine.QGraphEngine"
        kinds = (
            "arrival",
            "task_ready",
            "compute_done",
            "barrier_ack",
            "ack_task_ready",
            "graph_update",
            "superstep_release",
            "qcut_done",
            "global_stop",
            "global_start",
            "worker_crash",
            "worker_recover",
            "controller_crash",
            "controller_recover",
            "heartbeat",
        )
        assert analysis.dispatch == {
            engine: {kind: f"{engine}._on_{kind}" for kind in kinds}
        }
        # ... and it is the table a constructed engine dispatches through
        eng = QGraphEngine(grid_graph(2, 2), make_cluster("M2", 2), np.zeros(4))
        assert {
            kind: f"{handler.__module__}.{handler.__qualname__}"
            for kind, handler in eng._handlers.items()
        } == analysis.dispatch[engine]

    def test_declared_table_resolves_handlers_through_ancestors(self):
        project = _project(
            {
                "src/repro/engine/mini.py": (
                    "class Base:\n"
                    "    def _on_alpha(self, now):\n"
                    "        pass\n"
                    "class Mini(Base):\n"
                    "    def __init__(self):\n"
                    '        self._handlers = {"alpha": self._on_alpha}\n'
                    '        self.labels = {"alpha": "a", "beta": self.missing}\n'
                ),
            }
        )
        assert EffectAnalysis(project).dispatch == {
            "repro.engine.mini.Mini": {"alpha": "repro.engine.mini.Base._on_alpha"}
        }


# ----------------------------------------------------------------------
# handler write inventory: writes through a local alias or subscripts
# ----------------------------------------------------------------------
_ALIAS_ENGINE = (
    "from typing import Dict, List\n"
    "class Runtime:\n"
    "    def __init__(self):\n"
    "        self.inflight: Dict[int, int] = {}\n"
    "        self.pending: Dict[int, int] = {}\n"
    "class Mini:\n"
    "    def __init__(self, queue):\n"
    "        self.queue = queue\n"
    "        self.runtimes: Dict[int, Runtime] = {}\n"
    "        self._send_costs: List[List[Dict[int, float]]] = []\n"
    "        self.state: Dict[int, float] = {}\n"
    "        self.grid: Dict[int, Dict[int, float]] = {}\n"
    "        self.box: Dict[int, List[float]] = {}\n"
    '        self._handlers = {"alpha": self._on_alpha}\n'
    "    def _on_alpha(self, now, payload):\n"
)


def _alias_effects(body):
    project = _project({"src/repro/engine/mini.py": _ALIAS_ENGINE + body})
    return EffectAnalysis(project).handlers["repro.engine.mini.Mini"]["alpha"]


def _alias_writes(body):
    return _alias_effects(body).writes


class TestAliasWrites:
    @pytest.mark.parametrize(
        "body, attr",
        [
            # engine.py's link-cost memo: a slot store through a memo row
            (
                "        costs = self._send_costs[payload['w']]\n"
                "        costs[payload['d']][payload['n']] = now\n",
                "Mini._send_costs",
            ),
            (
                "        qr = self.runtimes[payload['q']]\n"
                "        inflight = qr.inflight\n"
                "        inflight[payload['w']] = inflight.get(payload['w'], 0) + 1\n",
                "Runtime.inflight",
            ),
            # an in-place mutator call through the alias
            (
                "        qr = self.runtimes[payload['q']]\n"
                "        pending = qr.pending\n"
                "        pending.pop(payload['w'], 0)\n",
                "Runtime.pending",
            ),
            # the direct forms of the first and the last, under subscripts
            ("        self.grid[payload['k']][payload['k']] = now\n", "Mini.grid"),
            ("        self.box[payload['k']].append(now)\n", "Mini.box"),
        ],
        ids=["memo-row", "runtime-field", "mutator", "nested-slot", "slot-mutator"],
    )
    def test_write_through_a_local_alias_writes_the_attribute(self, body, attr):
        assert attr in _alias_writes(body)

    def test_a_copy_or_a_read_is_not_a_write(self):
        writes = _alias_writes(
            "        snapshot = dict(self.state)\n"
            "        snapshot[payload['k']] = now\n"
            "        inflight = self.runtimes[payload['q']].inflight\n"
            "        total = inflight.get(payload['w'], 0)\n"
        )
        assert writes == set()

    def test_a_called_method_is_not_a_read(self):
        effects = _alias_effects(
            "        self._bump(payload)\n"
            "    def _bump(self, payload):\n"
            "        self.state[payload['k']] = 1.0\n"
        )
        # the helper's effects are the handler's, its name is not state
        assert effects.writes == {"Mini.state"}
        assert effects.reads == {"Mini.state"}
        # a bound method passed on as a value is still read
        effects = _alias_effects("        callback = self._on_alpha\n")
        assert effects.reads == {"Mini._on_alpha"}

    def test_a_method_called_in_a_condition_guards_with_its_own_reads(self):
        inline = _alias_effects(
            "        if self.state and payload['k'] in self.box:\n"
            "            self.grid[payload['k']] = {}\n"
        )
        behind = _alias_effects(
            "        if self._ready(payload):\n"
            "            self.grid[payload['k']] = {}\n"
            "    def _ready(self, payload):\n"
            "        return self.state and payload['k'] in self.box\n"
        )
        # extracting the test into a helper moves no guard, and the
        # helper's name is not one
        assert inline.guards == behind.guards == {"Mini.state", "Mini.box"}


# ----------------------------------------------------------------------
# RNG stream flow
# ----------------------------------------------------------------------
_SCHED_SINK = "def jitter(rng):\n    return rng.random()\n"


class TestRngFlow:
    def test_stream_crossing_flagged(self):
        findings = lint_sources(
            {
                "src/repro/workload/gen.py": (
                    "import numpy as np\n"
                    "from repro.simulation.sched import jitter\n"
                    "def build(seed):\n"
                    "    rng = np.random.default_rng([seed, 0x51C])\n"
                    "    return rng.random() + jitter(rng)\n"
                ),
                "src/repro/simulation/sched.py": _SCHED_SINK,
            },
            select=["rng-stream-crossing"],
        )
        assert _rules_of(findings) == ["rng-stream-crossing"]
        assert "workload" in findings[0].message
        assert "simulation" in findings[0].message

    def test_stream_within_subsystem_clean(self):
        findings = lint_sources(
            {
                "src/repro/workload/gen.py": (
                    "import numpy as np\n"
                    "from repro.workload.shape import jitter\n"
                    "def build(seed):\n"
                    "    rng = np.random.default_rng([seed, 0x51C])\n"
                    "    return rng.random() + jitter(rng)\n"
                ),
                "src/repro/workload/shape.py": _SCHED_SINK,
            },
            select=["rng-stream-crossing"],
        )
        assert findings == []

    def test_crossing_without_foreign_draw_clean(self):
        # handing the generator across is fine as long as the other
        # subsystem never draws from it (e.g. plumbing through a config)
        findings = lint_sources(
            {
                "src/repro/workload/gen.py": (
                    "import numpy as np\n"
                    "from repro.simulation.sched import hold\n"
                    "def build(seed):\n"
                    "    rng = np.random.default_rng([seed, 0x51C])\n"
                    "    hold(rng)\n"
                    "    return rng.random()\n"
                ),
                "src/repro/simulation/sched.py": (
                    "def hold(rng):\n    return rng\n"
                ),
            },
            select=["rng-stream-crossing"],
        )
        assert findings == []

    def test_unseeded_escape_flagged_and_seeded_clean(self):
        dirty = lint_sources(
            {
                "src/repro/workload/gen.py": (
                    "import numpy as np\n"
                    "def make():\n"
                    "    rng = np.random.default_rng()\n"
                    "    return rng\n"
                ),
            },
            select=["rng-unseeded-escape"],
        )
        assert _rules_of(dirty) == ["rng-unseeded-escape"]
        clean = lint_sources(
            {
                "src/repro/workload/gen.py": (
                    "import numpy as np\n"
                    "def make(seed):\n"
                    "    rng = np.random.default_rng([seed, 0x51C])\n"
                    "    return rng\n"
                ),
            },
            select=["rng-unseeded-escape"],
        )
        assert clean == []

    def test_unseeded_local_draw_clean(self):
        # nondeterministic but contained: the module-rng/seed policy rules
        # own that judgement, escape analysis only polices the boundary
        findings = lint_sources(
            {
                "src/repro/workload/gen.py": (
                    "import numpy as np\n"
                    "def make():\n"
                    "    return float(np.random.default_rng().random())\n"
                ),
            },
            select=["rng-unseeded-escape"],
        )
        assert findings == []

    def test_generator_in_signature_flagged(self):
        findings = lint_sources(
            {
                "src/repro/workload/gen.py": (
                    "import numpy as np\n"
                    "def sample(rng=np.random.default_rng(0)):\n"
                    "    return rng.random()\n"
                ),
            },
            select=["rng-in-library-signature"],
        )
        assert _rules_of(findings) == ["rng-in-library-signature"]


# ----------------------------------------------------------------------
# virtual-time races
# ----------------------------------------------------------------------
_DISPATCH = (
    "    def step(self):\n"
    "        event = self.queue.pop()\n"
    "        self._handlers[event.kind](event.time, event.payload)\n"
)


def _engine_module(handler_a, handler_b):
    return (
        "class Mini:\n"
        "    def __init__(self, queue):\n"
        "        self.queue = queue\n"
        "        self.state = {}\n"
        "        self.paused = False\n"
        '        self._handlers = {"alpha": self._on_alpha, "beta": self._on_beta}\n'
        + _DISPATCH
        + handler_a
        + handler_b
    )


class TestRaces:
    def test_unguarded_overlap_flagged(self):
        src = _engine_module(
            "    def _on_alpha(self, now, payload):\n"
            "        self.state[payload['k']] = payload['v']\n"
            "        self.queue.schedule(now, 'alpha', k=1, v=2)\n",
            "    def _on_beta(self, now, payload):\n"
            "        self.state = {}\n",
        )
        findings = lint_sources(
            {"src/repro/engine/mini.py": src}, select=["virtual-time-race"]
        )
        assert _rules_of(findings) == ["virtual-time-race"]
        assert "_on_alpha" in findings[0].message

    def test_one_guarded_side_clean(self):
        # protocol ordering: the later handler fences on the pause flag
        src = _engine_module(
            "    def _on_alpha(self, now, payload):\n"
            "        self.state[payload['k']] = payload['v']\n"
            "        self.queue.schedule(now, 'alpha', k=1, v=2)\n",
            "    def _on_beta(self, now, payload):\n"
            "        if self.paused:\n"
            "            return\n"
            "        self.state = {}\n",
        )
        findings = lint_sources(
            {"src/repro/engine/mini.py": src}, select=["virtual-time-race"]
        )
        assert findings == []

    def test_a_fence_behind_a_called_helper_is_clean(self):
        src = _engine_module(
            "    def _on_alpha(self, now, payload):\n"
            "        self.state[payload['k']] = payload['v']\n"
            "        self.queue.schedule(now, 'alpha', k=1, v=2)\n",
            "    def _on_beta(self, now, payload):\n"
            "        if self._skip(payload):\n"
            "            return\n"
            "        self.state = {}\n"
            "    def _skip(self, payload):\n"
            "        return self.paused and payload['q'] > 0\n",
        )
        findings = lint_sources(
            {"src/repro/engine/mini.py": src}, select=["virtual-time-race"]
        )
        assert findings == []

    def test_delayed_only_kinds_clean(self):
        # both kinds scheduled exclusively now + delay: tie-free
        src = _engine_module(
            "    def _on_alpha(self, now, payload):\n"
            "        self.state[payload['k']] = payload['v']\n"
            "        self.queue.schedule(now + 1, 'beta', k=1)\n",
            "    def _on_beta(self, now, payload):\n"
            "        self.state = {}\n"
            "        self.queue.schedule(now + 2, 'alpha', k=1, v=2)\n",
        )
        findings = lint_sources(
            {"src/repro/engine/mini.py": src}, select=["virtual-time-race"]
        )
        assert findings == []

    def test_disjoint_write_sets_clean(self):
        src = _engine_module(
            "    def _on_alpha(self, now, payload):\n"
            "        self.state[payload['k']] = payload['v']\n"
            "        self.queue.schedule(now, 'alpha', k=1, v=2)\n",
            "    def _on_beta(self, now, payload):\n"
            "        self.other = payload['v']\n",
        )
        findings = lint_sources(
            {"src/repro/engine/mini.py": src}, select=["virtual-time-race"]
        )
        assert findings == []

    def test_suppression_on_handler_def_line(self):
        src = _engine_module(
            "    def _on_alpha(self, now, payload):"
            "  # repro-lint: disable=virtual-time-race -- distilled fixture\n"
            "        self.state[payload['k']] = payload['v']\n"
            "        self.queue.schedule(now, 'alpha', k=1, v=2)\n",
            "    def _on_beta(self, now, payload):\n"
            "        self.state = {}\n",
        )
        findings = lint_sources(
            {"src/repro/engine/mini.py": src}, select=["virtual-time-race"]
        )
        assert findings == []

    @pytest.mark.parametrize(
        "schedule",
        [
            "        self.queue.schedule(now + 1, 'beta', k=1)\n",
            # the engine's multi-line keyword style: the schedule is looked
            # up by the call's first line
            "        self.queue.schedule(\n"
            "            now + 1,\n"
            "            'beta',\n"
            "            k=1,\n"
            "        )\n",
        ],
        ids=["one-line", "multi-line"],
    )
    def test_effect_after_schedule_flagged_then_hoisted_clean(self, schedule):
        dirty = _engine_module(
            "    def _on_alpha(self, now, payload):\n"
            + schedule
            + "        self.state = {}\n",
            "    def _on_beta(self, now, payload):\n"
            "        if self.paused:\n"
            "            return\n"
            "        self.state[payload['k']] = 1\n",
        )
        findings = lint_sources(
            {"src/repro/engine/mini.py": dirty}, select=["effect-after-schedule"]
        )
        assert _rules_of(findings) == ["effect-after-schedule"]
        hoisted = _engine_module(
            "    def _on_alpha(self, now, payload):\n"
            "        self.state = {}\n"
            + schedule,
            "    def _on_beta(self, now, payload):\n"
            "        if self.paused:\n"
            "            return\n"
            "        self.state[payload['k']] = 1\n",
        )
        assert (
            lint_sources(
                {"src/repro/engine/mini.py": hoisted},
                select=["effect-after-schedule"],
            )
            == []
        )

    def test_write_after_schedule_in_returning_branch_clean(self):
        # control-flow awareness: the schedule's branch returns, so the
        # lexically-later write can never follow it
        src = _engine_module(
            "    def _on_alpha(self, now, payload):\n"
            "        if payload['fast']:\n"
            "            self.queue.schedule(now + 1, 'beta', k=1)\n"
            "            return\n"
            "        self.state = {}\n",
            "    def _on_beta(self, now, payload):\n"
            "        if self.paused:\n"
            "            return\n"
            "        self.state[payload['k']] = 1\n",
        )
        findings = lint_sources(
            {"src/repro/engine/mini.py": src}, select=["effect-after-schedule"]
        )
        assert findings == []


# ----------------------------------------------------------------------
# distilled historical bugs: the acceptance contract, through the CLI
# ----------------------------------------------------------------------
class TestHistoricalBugFixtures:
    @pytest.mark.parametrize(
        "fixture, rule",
        [
            ("midbsp_stop_bug.py", "virtual-time-race"),
            ("stale_barrier_ack_bug.py", "effect-after-schedule"),
            ("rng_unseeded_escape_bug.py", "rng-unseeded-escape"),
            ("checkpoint_gap_bug.py", "checkpoint-gap"),
            ("restore_asymmetry_bug.py", "restore-asymmetry"),
            ("finish_leak_bug.py", "finish-leak"),
            ("atomic_mutation_bug.py", "atomic-mutation"),
            ("barrier_liveness_bug.py", "barrier-liveness"),
            ("ack_completeness_bug.py", "ack-completeness"),
            ("epoch_fence_bug.py", "epoch-fence"),
            ("event_kind_closure_bug.py", "event-kind-closure"),
        ],
    )
    def test_fixture_exits_dirty(self, fixture, rule, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        path = FIXTURES / fixture
        assert path.is_file()
        code = cli_main([str(path.relative_to(REPO_ROOT)), "--select", rule])
        out = capsys.readouterr().out
        assert code == 1
        assert rule in out

    def test_fixtures_are_skipped_by_directory_walks(self):
        findings = lint_project([REPO_ROOT / "tests"], root=REPO_ROOT)
        assert [v for v in findings if "fixtures" in v.path] == []


# ----------------------------------------------------------------------
# repository gates: clean at HEAD, baseline stability, hygiene
# ----------------------------------------------------------------------
def _repo_paths():
    return [REPO_ROOT / p for p in DEFAULT_PATHS]


def test_repository_is_clean_under_project_rules():
    baseline = load_baseline(REPO_ROOT / BASELINE_NAME)
    findings = lint_project(
        _repo_paths(), root=REPO_ROOT, manifest=baseline.state_manifest
    )
    assert findings == [], [f"{v.path}:{v.line}: {v.rule}" for v in findings]


def test_checked_in_baseline_is_current():
    baseline_path = REPO_ROOT / BASELINE_NAME
    baseline = load_baseline(baseline_path)
    project = load_project(_repo_paths(), root=REPO_ROOT)
    regenerated = render_baseline(project, state_manifest=baseline.state_manifest)
    fresh = json.loads(regenerated)
    drift = diff_effects(baseline.effects, fresh["effects"]) + diff_manifest(
        baseline.state_manifest, fresh["state_manifest"]
    )
    assert regenerated == baseline_path.read_text(encoding="utf-8"), (
        "analysis_baseline.json is stale; regenerate with "
        "`python -m repro.analysis --write-baseline`:\n" + "\n".join(drift)
    )


def test_state_manifest_is_current_and_fully_classified():
    """A stale or unclassified ``state_manifest`` fails tier-1.

    Byte-stability above already catches *rotted* entries; this gate makes
    the two manifest-specific failure modes legible on their own: a newly
    handler-written attribute missing from the manifest, and a generated
    ``unclassified`` placeholder that was committed without a human
    classification + reason.
    """
    baseline = load_baseline(REPO_ROOT / BASELINE_NAME)
    project = load_project(_repo_paths(), root=REPO_ROOT)
    fresh = render_manifest(project, curated=baseline.state_manifest)
    drift = diff_manifest(baseline.state_manifest, fresh)
    assert baseline.state_manifest == fresh, (
        "state_manifest is stale; regenerate with "
        "`python -m repro.analysis --write-baseline` and classify the new "
        "entries:\n" + "\n".join(drift)
    )
    unclassified = sorted(
        attr
        for attr, entry in baseline.state_manifest.items()
        if entry["kind"] == "unclassified" or not entry["reason"].strip()
    )
    assert unclassified == [], (
        "state_manifest entries need a kind + reason: "
        + ", ".join(unclassified)
    )


def test_project_memo_builds_once_per_project_and_manifest():
    project = _project(
        {"src/repro/engine/mini.py": _engine_module("", ""), "tests/test_x.py": ""}
    )
    sub = project.with_roles(("src",))
    assert project.with_roles(("src",)) is sub
    assert [c.path for c in sub.files] == ["src/repro/engine/mini.py"]
    table, graph = project_graph(sub)
    assert project_graph(sub)[0] is table and project_graph(sub)[1] is graph
    assert effect_analysis_for(sub) is effect_analysis_for(sub)
    # the same parsed files under two manifests are two projects, so an
    # analysis built for one manifest is never served to the other
    baseline = load_baseline(REPO_ROOT / BASELINE_NAME)
    files = load_project([REPO_ROOT / "src" / "repro" / "engine"], root=REPO_ROOT).files
    classified = protocol_summary(
        ProjectContext(files, state_manifest=baseline.state_manifest)
    )["QGraphEngine"]["states"]
    bare = protocol_summary(ProjectContext(files))["QGraphEngine"]["states"]
    assert classified.keys() == bare.keys()
    assert "unclassified" not in classified.values()
    assert set(bare.values()) == {"unclassified"}


def test_project_rule_catalog():
    assert set(all_project_rules()) == {
        "rng-stream-crossing",
        "rng-unseeded-escape",
        "rng-in-library-signature",
        "virtual-time-race",
        "effect-after-schedule",
        "checkpoint-gap",
        "restore-asymmetry",
        "finish-leak",
        "atomic-mutation",
        "barrier-liveness",
        "ack-completeness",
        "epoch-fence",
        "event-kind-closure",
    }
    for rule in all_project_rules().values():
        assert rule.description
        assert tuple(rule.roles) == ("src",)


def test_no_bytecode_is_tracked():
    try:
        tracked = subprocess.run(
            ["git", "ls-files"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
            timeout=30,
        ).stdout.splitlines()
    except (OSError, subprocess.SubprocessError):
        pytest.skip("git unavailable")
    dirty = [
        f for f in tracked if f.endswith(".pyc") or "__pycache__" in f
    ]
    assert dirty == [], dirty


def test_cli_drift_reports_all_three_sections(monkeypatch, capsys, tmp_path):
    """``--drift`` is one invocation for the CI review artifact: effect
    summaries, state manifest and protocol automata, a section each."""
    monkeypatch.chdir(REPO_ROOT)
    raw = json.loads((REPO_ROOT / BASELINE_NAME).read_text(encoding="utf-8"))
    del raw["effects"]["QGraphEngine"]["heartbeat"]
    del raw["state_manifest"]["QueryRuntime.activated"]
    del raw["protocol"]["QGraphEngine"]["transitions"]["heartbeat"]
    doctored = tmp_path / BASELINE_NAME
    doctored.write_text(json.dumps(raw), encoding="utf-8")
    assert cli_main(["--drift", "--baseline", str(doctored)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "+ QGraphEngine.heartbeat: new handler",
        "repro-lint: 1 effect-summary change(s) vs baseline",
        "+ QueryRuntime.activated: new state (unclassified)",
        "repro-lint: 1 state-manifest change(s) vs baseline",
        "+ QGraphEngine.heartbeat: new transition",
        "repro-lint: 1 protocol-automaton change(s) vs baseline",
    ]


def test_cli_rejects_unknown_rule(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    assert cli_main(["--select", "no-such-rule"]) == 2
    err = capsys.readouterr().err
    assert "unknown rule(s): no-such-rule" in err
    # a typo'd --select must not read as "clean"; the error names the
    # catalog so the caller can self-correct
    assert "valid rules:" in err
    for name in ("barrier-liveness", "module-rng", "virtual-time-race"):
        assert name in err


def test_cli_rejects_mixed_known_and_unknown_rules(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    assert cli_main(["--select", "barrier-liveness,epoch-fnce"]) == 2
    err = capsys.readouterr().err
    assert "unknown rule(s): epoch-fnce" in err
    assert "barrier-liveness" not in err.split("valid rules:")[0]
