"""Event-handler effect analysis: dispatch tables and read/write sets.

The engine routes every popped event through ``getattr(self,
f"_on_{event.kind}")`` — the dispatch table is implicit in method names.
This module recovers it statically and computes, for every handler, the
*transitive* set of attributes it reads and writes across the call graph
(attributed to the class owning the attribute: ``QGraphEngine.paused``,
``QueryRuntime.acked``, ``SimWorker.busy_until``, …), the *guard*
attributes it tests in conditionals (epoch/phase fencing), and every
event it schedules (with a coarse delay class).  The race rules in
:mod:`repro.analysis.races` and the checked-in effect baseline are both
built from these summaries.

Delay classes for schedule points:

``zero``
    Scheduled at exactly ``now`` — ties with anything already pending at
    the current timestamp.
``delayed``
    ``now + <expr>`` — *usually* later, but simulated costs may be
    configured to zero, so a delayed event can still tie.
``constant`` / ``unknown``
    An absolute time or an unclassifiable expression.

Only ``delayed``-exclusively-scheduled kinds are considered tie-free by
the race detector; everything else can share a timestamp (the event queue
breaks ties by schedule order, which is exactly the fragile property the
detector polices).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import CallGraph, SymbolTable, project_graph
from repro.analysis.visitor import ProjectContext

__all__ = [
    "HandlerEffects",
    "EffectAnalysis",
    "effect_analysis_for",
    "GUARD_ATTR_RE",
    "BENIGN_CLASSES",
    "BENIGN_ATTRS",
]

#: classes whose attribute writes never constitute a hazard between
#: handlers: pure observers (metrics, the sanitizer's own bookkeeping) and
#: the event queue itself, whose (time, seq) tie-break is the ordering
#: mechanism under analysis rather than racy state
BENIGN_CLASSES = frozenset({"MetricsTrace", "SimulationSanitizer", "EventQueue"})
#: individual attributes excluded from hazard overlap (counters/diagnostics)
BENIGN_ATTRS = frozenset({"QGraphEngine._events_processed"})

#: attribute-name shapes that act as epoch/phase fences when read in a
#: conditional: a handler testing one of these before touching shared
#: state is ordering itself against the barrier protocol, not against
#: schedule order
GUARD_ATTR_RE = re.compile(
    r"epoch|phase|halt|stop|paus|dead|crash|taint|recover|barrier|generation"
    r"|in_progress|inflight|in_flight|outstanding|quiesc|down|pending|active"
)

#: in-place mutators: a call ``x.attr.<m>(...)`` writes ``x.attr``
_MUTATOR_METHODS = frozenset(
    {
        "append", "appendleft", "extend", "insert", "add", "discard", "remove",
        "pop", "popleft", "popitem", "clear", "update", "setdefault", "sort",
        "reverse", "fill", "put",
    }
)


#: a schedule point: (kind or None, delay class, line, follower lines)
_SchedulePoint = Tuple[Optional[str], str, int, FrozenSet[int]]


@dataclass
class _DirectEffects:
    """Per-function direct effects (before call-graph propagation)."""

    reads: Set[str] = field(default_factory=set)
    writes: Set[str] = field(default_factory=set)
    guards: Set[str] = field(default_factory=set)
    #: (attr effect, line) for ordered effect-after-schedule checks
    write_sites: List[Tuple[str, int]] = field(default_factory=list)
    schedules: List[_SchedulePoint] = field(default_factory=list)


@dataclass
class HandlerEffects:
    """Transitive effect summary of one event handler."""

    kind: str
    qname: str
    reads: Set[str]
    writes: Set[str]
    guards: Set[str]
    schedules: List[_SchedulePoint]
    direct: _DirectEffects

    def hazardous_writes(self) -> Set[str]:
        return {
            w
            for w in self.writes
            if w not in BENIGN_ATTRS and w.split(".")[0] not in BENIGN_CLASSES
        }

    def is_guarded(self) -> bool:
        """Whether any conditional in the handler tests a fence attribute."""
        return any(GUARD_ATTR_RE.search(g.split(".")[-1]) for g in self.guards)

    def summary(self) -> Dict[str, object]:
        """JSON-stable form for the checked-in effect baseline."""
        return {
            "handler": self.qname,
            "reads": sorted(self.reads),
            "writes": sorted(self.writes),
            "guards": sorted(self.guards),
            "guarded": self.is_guarded(),
            "schedules": sorted(
                {(k or "?", delay) for k, delay, *_ in self.schedules}
            ),
        }


def _short(qname: str) -> str:
    return qname.split(".")[-1]


def _is_schedule_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "schedule"
        and len(node.args) >= 2
    )


def _stmt_lines(stmt: ast.stmt) -> Set[int]:
    return {n.lineno for n in ast.walk(stmt) if hasattr(n, "lineno")}


def _schedule_followers(fn_node: ast.AST) -> Dict[int, Set[int]]:
    """Map each schedule call (by node id) to lines that may run after it.

    Line-number comparison alone over-reports: a ``schedule(...); return``
    branch is never followed by the statements lexically below it.  This
    walks the statement structure instead — followers are the remaining
    statements of every enclosing suite, cut off at ``return``/``raise``
    (and at an ``if``/``else`` where *both* arms terminate).  Loop
    iterations are deliberately NOT carried around: in the engine's
    per-object loops (``for w in sorted(...)``) a later iteration's write
    touches a *different* worker/query than the earlier iteration's
    scheduled event, and this analysis is attribute- not object-sensitive
    — carrying the backedge would drown the rule in cross-object noise.
    Over-approximate on ``try`` edges — extra followers only ever cost a
    reviewed finding, never hide one.
    """
    out: Dict[int, Set[int]] = {}

    def process(stmts: Sequence[ast.stmt]) -> Tuple[List[int], bool]:
        """Returns (schedule ids escaping this suite, suite terminates)."""
        open_ids: List[int] = []
        for stmt in stmts:
            lines = _stmt_lines(stmt)
            for sid in open_ids:
                out[sid] |= lines
            if isinstance(stmt, (ast.Return, ast.Raise)):
                for node in ast.walk(stmt):
                    if _is_schedule_call(node):
                        out.setdefault(id(node), set())
                return [], True
            if isinstance(stmt, (ast.Break, ast.Continue)):
                # control re-enters at the loop level; the whole-loop line
                # add below covers the repeated body, and post-loop
                # statements legitimately follow once the loop exits
                return open_ids, True
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # nested scopes run at call time, not here
            sub_suites: List[Sequence[ast.stmt]] = []
            if isinstance(stmt, (ast.If, ast.While, ast.For, ast.AsyncFor)):
                sub_suites = [stmt.body, stmt.orelse]
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                sub_suites = [stmt.body]
            elif isinstance(stmt, ast.Try):
                sub_suites = [stmt.body, *[h.body for h in stmt.handlers], stmt.orelse, stmt.finalbody]
            if not sub_suites:
                for node in ast.walk(stmt):
                    if _is_schedule_call(node):
                        out.setdefault(id(node), set())
                        open_ids.append(id(node))
                continue
            inner = {
                id(node)
                for suite in sub_suites
                for sub in suite
                for node in ast.walk(sub)
            }
            for node in ast.walk(stmt):
                if id(node) not in inner and _is_schedule_call(node):
                    out.setdefault(id(node), set())
                    open_ids.append(id(node))
            escaped: List[int] = []
            terms: List[bool] = []
            for suite in sub_suites:
                if not suite:
                    terms.append(False)
                    continue
                esc, term = process(suite)
                escaped.extend(esc)
                terms.append(term)
            open_ids.extend(escaped)
            if isinstance(stmt, ast.If) and stmt.orelse and all(terms):
                return [], True
        return open_ids, False

    body = getattr(fn_node, "body", None)
    if isinstance(body, list):
        process(body)
    return out


class EffectAnalysis:
    """Dispatch tables + per-handler transitive effect summaries."""

    def __init__(self, project: ProjectContext) -> None:
        self.project = project
        self.table: SymbolTable
        self.graph: CallGraph
        self.table, self.graph = project_graph(project)
        #: dispatcher class qname -> {event kind -> handler qname}
        self.dispatch: Dict[str, Dict[str, str]] = self._extract_dispatch_tables()
        self._direct: Dict[str, _DirectEffects] = {}
        for fn in self.graph.iter_functions():
            self._direct[fn.qname] = self._direct_effects(fn.qname)
        #: dispatcher class qname -> {kind -> HandlerEffects}
        self.handlers: Dict[str, Dict[str, HandlerEffects]] = {}
        for cls, kinds in self.dispatch.items():
            self.handlers[cls] = {
                kind: self._summarize(kind, handler)
                for kind, handler in kinds.items()
            }
        #: every (kind, delay class) schedule point in the project — used
        #: for tie-eligibility, so producers outside handlers count too
        self.kind_delays: Dict[str, Set[str]] = {}
        for direct in self._direct.values():
            for kind, delay, *_ in direct.schedules:
                if kind is not None:
                    self.kind_delays.setdefault(kind, set()).add(delay)

    # ------------------------------------------------------------------
    # dispatch-table extraction
    # ------------------------------------------------------------------
    @staticmethod
    def _is_handler_getattr(node: ast.Call) -> bool:
        """Matches ``getattr(self, f"_on_{...}", ...)``."""
        if not (isinstance(node.func, ast.Name) and node.func.id == "getattr"):
            return False
        if len(node.args) < 2:
            return False
        pattern = node.args[1]
        if not isinstance(pattern, ast.JoinedStr) or not pattern.values:
            return False
        first = pattern.values[0]
        return (
            isinstance(first, ast.Constant)
            and isinstance(first.value, str)
            and first.value.startswith("_on_")
        )

    def _extract_dispatch_tables(self) -> Dict[str, Dict[str, str]]:
        tables: Dict[str, Dict[str, str]] = {}
        for cls_qname, info in self.table.classes.items():
            dispatches = False
            for method_qname in info.methods.values():
                fn = self.table.functions[method_qname]
                for node in ast.walk(fn.node):
                    if isinstance(node, ast.Call) and self._is_handler_getattr(node):
                        dispatches = True
                        break
                if dispatches:
                    break
            if not dispatches:
                continue
            kinds: Dict[str, str] = {}
            for ancestor in self.table.ancestors(cls_qname):
                for name, method_qname in self.table.classes[ancestor].methods.items():
                    if name.startswith("_on_") and len(name) > 4:
                        kinds.setdefault(name[4:], method_qname)
            if kinds:
                tables[cls_qname] = kinds
        return tables

    # ------------------------------------------------------------------
    # direct effects
    # ------------------------------------------------------------------
    def _effect_name(self, fn_qname: str, node: ast.Attribute) -> Optional[str]:
        base = self.graph.expr_type(fn_qname, node.value)
        if base is None or base.cls is None:
            return None
        if base.cls not in self.table.classes:
            return None
        return f"{_short(base.cls)}.{node.attr}"

    @staticmethod
    def _delay_class(node: ast.AST) -> str:
        if isinstance(node, ast.Name):
            return "zero" if node.id == "now" else "unknown"
        if isinstance(node, ast.Constant):
            return "constant"
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            left = node.left
            if isinstance(left, ast.Name) and left.id == "now":
                return "delayed"
            if isinstance(left, ast.BinOp):
                return EffectAnalysis._delay_class(left)
        return "unknown"

    def _direct_effects(self, fn_qname: str) -> _DirectEffects:
        fn = self.table.functions[fn_qname]
        out = _DirectEffects()
        role_src = fn.ctx.role == "src"
        followers = _schedule_followers(fn.node) if role_src else {}
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Attribute):
                effect = self._effect_name(fn_qname, node)
                if effect is None:
                    continue
                if isinstance(node.ctx, (ast.Store, ast.Del)):
                    out.writes.add(effect)
                    out.write_sites.append((effect, node.lineno))
                else:
                    out.reads.add(effect)
            elif isinstance(node, ast.Subscript):
                # ``x.attr[i] = v`` / ``del x.attr[i]`` writes the slot
                if isinstance(node.ctx, (ast.Store, ast.Del)) and isinstance(
                    node.value, ast.Attribute
                ):
                    effect = self._effect_name(fn_qname, node.value)
                    if effect is not None:
                        out.writes.add(effect)
                        out.write_sites.append((effect, node.lineno))
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATOR_METHODS
                    and isinstance(func.value, ast.Attribute)
                ):
                    effect = self._effect_name(fn_qname, func.value)
                    if effect is not None:
                        out.writes.add(effect)
                        out.write_sites.append((effect, node.lineno))
                if role_src and _is_schedule_call(node):
                    kind_arg = node.args[1]
                    kind = (
                        kind_arg.value
                        if isinstance(kind_arg, ast.Constant)
                        and isinstance(kind_arg.value, str)
                        else None
                    )
                    out.schedules.append(
                        (
                            kind,
                            self._delay_class(node.args[0]),
                            node.lineno,
                            frozenset(followers.get(id(node), ())),
                        )
                    )
            elif isinstance(node, (ast.If, ast.While)):
                self._collect_guards(fn_qname, node.test, out)
            elif isinstance(node, ast.IfExp):
                self._collect_guards(fn_qname, node.test, out)
            elif isinstance(node, ast.Assert):
                self._collect_guards(fn_qname, node.test, out)
        return out

    def _collect_guards(
        self, fn_qname: str, test: ast.AST, out: _DirectEffects
    ) -> None:
        for node in ast.walk(test):
            if isinstance(node, ast.Attribute):
                effect = self._effect_name(fn_qname, node)
                if effect is not None:
                    out.guards.add(effect)

    # ------------------------------------------------------------------
    # transitive summaries
    # ------------------------------------------------------------------
    def _summarize(self, kind: str, handler_qname: str) -> HandlerEffects:
        reads: Set[str] = set()
        writes: Set[str] = set()
        guards: Set[str] = set()
        schedules: List[_SchedulePoint] = []
        for callee in sorted(self.graph.transitive(handler_qname)):
            direct = self._direct.get(callee)
            if direct is None:
                continue
            reads |= direct.reads
            writes |= direct.writes
            guards |= direct.guards
            schedules.extend(direct.schedules)
        return HandlerEffects(
            kind=kind,
            qname=handler_qname,
            reads=reads,
            writes=writes,
            guards=guards,
            schedules=schedules,
            direct=self._direct[handler_qname],
        )

    # ------------------------------------------------------------------
    # tie-eligibility
    # ------------------------------------------------------------------
    def may_tie(self, kind_a: str, kind_b: str) -> bool:
        """Whether two event kinds can pop at the same virtual timestamp.

        A kind scheduled *only* with ``now + <expr>`` delays is treated as
        tie-free against other delayed kinds; any ``zero``/``constant``/
        ``unknown`` schedule point (or a kind with no visible producer —
        an external entry point) makes ties possible.
        """
        delays_a = self.kind_delays.get(kind_a, {"unknown"})
        delays_b = self.kind_delays.get(kind_b, {"unknown"})
        ties_a = delays_a != {"delayed"}
        ties_b = delays_b != {"delayed"}
        return ties_a or ties_b

    def effect_summary(self) -> Dict[str, Dict[str, object]]:
        """Deterministic whole-project summary for the checked-in baseline."""
        out: Dict[str, Dict[str, object]] = {}
        for cls in sorted(self.handlers):
            per_kind = {
                kind: effects.summary()
                for kind, effects in sorted(self.handlers[cls].items())
            }
            out[_short(cls)] = per_kind
        return out


#: (file-context identity tuple) -> analysis; same FIFO discipline as the
#: call-graph cache in :mod:`repro.analysis.callgraph`.  One ``lint_project``
#: run fans the same parsed files out to every project rule (each receives a
#: fresh role-filtered ``ProjectContext`` *sharing* the ``FileContext``
#: objects), so keying on file identity lets the race, lifecycle and
#: protocol rules all reuse a single dispatch/effect build instead of each
#: reconstructing it — the dominant cost of a whole-repo lint.
_EFFECTS_CACHE: Dict[Tuple[int, ...], "EffectAnalysis"] = {}
_EFFECTS_CACHE_LIMIT = 8


def effect_analysis_for(project: ProjectContext) -> EffectAnalysis:
    """The shared per-project :class:`EffectAnalysis` (built at most once)."""
    key = tuple(sorted(id(ctx) for ctx in project.files))
    cached = _EFFECTS_CACHE.get(key)
    if cached is not None:
        return cached
    analysis = EffectAnalysis(project)
    if len(_EFFECTS_CACHE) >= _EFFECTS_CACHE_LIMIT:
        _EFFECTS_CACHE.pop(next(iter(_EFFECTS_CACHE)))
    _EFFECTS_CACHE[key] = analysis
    return analysis
