"""Event-handler effect analysis: dispatch tables and read/write sets.

The engine routes every popped event through the ``kind -> handler``
table it declares (``self._handlers = {"arrival": self._on_arrival,
...}``); a kind missing from it raises only when it fires, so the
``event-kind-closure`` rule checks schedule sites against it first.  This
module reads that table and computes, for every handler, the
*transitive* attributes it reads and writes across the call graph (named
by owning class: ``QGraphEngine.paused``, ``QueryRuntime.acked``, …), the
*guard* attributes it tests in conditionals (epoch/phase fencing), and
every event it schedules (with a coarse delay class).  A called method
is not a read; a property or a bound method passed on as a value is.
Each write is classified here, once, by shape (see
:attr:`_DirectEffects.writes`); the race, lifecycle and protocol rules and
the checked-in effect baseline are all built from these records.

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
from repro.analysis.visitor import FileContext, ProjectContext

__all__ = [
    "HandlerEffects",
    "EffectAnalysis",
    "effect_analysis_for",
    "GUARD_ATTR_RE",
    "BENIGN_CLASSES",
    "BENIGN_ATTRS",
    "MANIFEST_KINDS",
    "short",
    "line_followers",
    "declared_tuples",
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

#: legal ``kind`` values of a ``state_manifest`` entry
MANIFEST_KINDS = ("per-query", "engine-global", "derived", "unclassified")

#: write shapes (see :attr:`_DirectEffects.writes`)
_ENTER = frozenset({"enter"})
_CLEAR = frozenset({"clear"})
_RESET = frozenset({"clear", "reset"})
_DECREMENT = frozenset({"decrement"})
_UNSHAPED: FrozenSet[str] = frozenset()

#: in-place mutators: a call ``x.attr.<m>(...)`` writes ``x.attr``, growing
#: it (park work, seed a set), releasing a slot or emptying it, or neither
_MUTATOR_SHAPES: Dict[str, FrozenSet[str]] = {
    **dict.fromkeys(
        ("append", "appendleft", "extend", "insert", "add", "setdefault",
         "update", "put"),
        _ENTER,
    ),
    **dict.fromkeys(
        ("pop", "popitem", "popleft", "clear", "discard", "remove"), _CLEAR
    ),
    **dict.fromkeys(("sort", "reverse", "fill"), _UNSHAPED),
}

#: constructor names whose zero-arg call is an empty-container literal
_EMPTY_CONSTRUCTORS = frozenset({"set", "dict", "list", "frozenset", "tuple"})


#: a schedule point: (kind or None, delay class, line, follower lines)
_SchedulePoint = Tuple[Optional[str], str, int, FrozenSet[int]]


@dataclass
class _DirectEffects:
    """One function's effects, or their union over a call-graph closure."""

    reads: Set[str] = field(default_factory=set)
    #: written attribute -> the shapes of its writes: ``enter`` (a growth
    #: mutator, a slot store, ``+=``, a non-empty assignment), ``clear`` (a
    #: release mutator, ``del``, an empty-value assignment), ``reset`` (the
    #: empty-value assignment) and ``decrement`` (``-=``); empty for a write
    #: of none of these shapes (``sort``, a ``for`` target)
    writes: Dict[str, Set[str]] = field(default_factory=dict)
    guards: Set[str] = field(default_factory=set)
    #: (attr effect, line) of the function's own writes, for ordered
    #: effect-after-schedule checks (empty in a closure)
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


def short(qname: str) -> str:
    """``repro.engine.engine.QGraphEngine`` -> ``QGraphEngine``."""
    return qname.split(".")[-1]


def _is_empty_value(node: ast.AST) -> bool:
    """An assigned value that empties or lowers its target.

    ``None``, ``False``, an empty literal or a zero-argument container
    constructor — the shape that clears per-query state on a finish path
    and releases (re-seeds) a protocol state.
    """
    if isinstance(node, ast.Constant) and (
        node.value is None or node.value is False
    ):
        return True
    if isinstance(node, (ast.List, ast.Tuple, ast.Set)) and not node.elts:
        return True
    if isinstance(node, ast.Dict) and not node.keys:
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _EMPTY_CONSTRUCTORS
        and not node.args
        and not node.keywords
    )


def _is_schedule_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "schedule"
        and len(node.args) >= 2
    )


def _stmt_lines(stmt: ast.stmt) -> Set[int]:
    return {n.lineno for n in ast.walk(stmt) if hasattr(n, "lineno")}


def line_followers(fn_node: ast.AST) -> Dict[int, Set[int]]:
    """Map every statement line to the lines that may execute after it.

    Line-number comparison alone over-reports: a ``schedule(...); return``
    branch is never followed by the statements lexically below it.  This
    walks the statement structure instead — a line's followers are the
    remaining statements of every enclosing suite, cut off at
    ``return``/``raise`` (statements after an unconditional ``raise`` are
    dead, not followers) and at an ``if``/``else`` whose arms both
    terminate.  Every line of one statement has the same followers, so a
    multi-line call is looked up by its first line.  Loop iterations are
    deliberately NOT carried around: in the engine's per-object loops
    (``for w in sorted(...)``) a later iteration's write touches a
    *different* worker/query than the earlier iteration's scheduled event
    or raise, and these analyses are attribute- not object-sensitive —
    carrying the backedge would drown the rules in cross-object noise.
    Over-approximate on ``try`` edges — extra followers only ever cost a
    reviewed finding, never hide one.
    """
    out: Dict[int, Set[int]] = {}

    def process(stmts: Sequence[ast.stmt]) -> Tuple[Set[int], bool]:
        """Returns (lines escaping this suite, suite terminates)."""
        open_lines: Set[int] = set()
        for stmt in stmts:
            lines = _stmt_lines(stmt)
            for ln in open_lines:
                out[ln] |= lines
            for ln in lines:
                out.setdefault(ln, set())
            if isinstance(stmt, (ast.Return, ast.Raise)):
                return set(), True
            if isinstance(stmt, (ast.Break, ast.Continue)):
                # control re-enters at the loop level; post-loop
                # statements legitimately follow once the loop exits
                return open_lines, True
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue  # nested scopes run at call time, not here
            sub_suites: List[Sequence[ast.stmt]] = []
            if isinstance(stmt, (ast.If, ast.While, ast.For, ast.AsyncFor)):
                sub_suites = [stmt.body, stmt.orelse]
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                sub_suites = [stmt.body]
            elif isinstance(stmt, ast.Try):
                sub_suites = [
                    stmt.body,
                    *[h.body for h in stmt.handlers],
                    stmt.orelse,
                    stmt.finalbody,
                ]
            if not sub_suites:
                open_lines |= lines
                continue
            inner = {
                ln
                for suite in sub_suites
                for sub in suite
                for ln in _stmt_lines(sub)
            }
            open_lines |= lines - inner
            escaped: Set[int] = set()
            terms: List[bool] = []
            for suite in sub_suites:
                if not suite:
                    terms.append(False)
                    continue
                esc, term = process(suite)
                escaped |= esc
                terms.append(term)
            open_lines |= escaped
            if isinstance(stmt, ast.If) and stmt.orelse and all(terms):
                return set(), True
        return open_lines, False

    body = getattr(fn_node, "body", None)
    if isinstance(body, list):
        process(body)
    return out


def declared_tuples(table: SymbolTable, name: str) -> List[Tuple[str, ...]]:
    """The string tuples of a module-level ``name = ((...), ...)`` constant.

    Scanned from every src module in module order — how
    ``STATE_INVARIANT_GROUPS`` and ``BARRIER_ACK_PROTOCOLS`` declare the
    couples the lifecycle and protocol rules prove the code against.
    Non-string members are dropped; callers filter on arity.
    """
    declared: List[Tuple[str, ...]] = []
    for module in sorted(table.modules):
        ctx = table.modules[module]
        if ctx.role != "src":
            continue
        for stmt in ctx.tree.body:
            value: Optional[ast.AST] = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name) and target.id == name:
                    value = stmt.value
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                if stmt.target.id == name:
                    value = stmt.value
            if not isinstance(value, (ast.Tuple, ast.List)):
                continue
            for elt in value.elts:
                if isinstance(elt, (ast.Tuple, ast.List)):
                    declared.append(
                        tuple(
                            str(item.value)
                            for item in elt.elts
                            if isinstance(item, ast.Constant)
                            and isinstance(item.value, str)
                        )
                    )
    return declared


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
        self._closures: Dict[str, _DirectEffects] = {}
        #: event kind -> every (fn qname, line, delay class) schedule site
        #: in the project, in function order — producers outside handlers
        #: count too, for tie-eligibility and kind closure
        self.schedule_sites: Dict[str, List[Tuple[str, int, str]]] = {}
        for fn_qname, direct in self._direct.items():
            for kind, delay, line, _followers in direct.schedules:
                if kind is not None:
                    self.schedule_sites.setdefault(kind, []).append(
                        (fn_qname, line, delay)
                    )
        #: dispatcher class qname -> {kind -> HandlerEffects}
        self.handlers: Dict[str, Dict[str, HandlerEffects]] = {}
        for cls, kinds in self.dispatch.items():
            self.handlers[cls] = {
                kind: self._summarize(kind, handler)
                for kind, handler in kinds.items()
            }

    # ------------------------------------------------------------------
    # dispatch-table extraction
    # ------------------------------------------------------------------
    def _extract_dispatch_tables(self) -> Dict[str, Dict[str, str]]:
        """Each class's declared ``kind -> handler`` table: a dict literal of
        string keys to ``self.<method>`` values, resolved via the ancestors."""
        tables: Dict[str, Dict[str, str]] = {}
        for cls_qname, info in self.table.classes.items():
            for method_qname in info.methods.values():
                for node in ast.walk(self.table.functions[method_qname].node):
                    if not isinstance(node, ast.Dict) or not node.keys:
                        continue
                    kinds = {
                        key.value: self.table.method(cls_qname, value.attr) or ""
                        for key, value in zip(node.keys, node.values)
                        if isinstance(key, ast.Constant)
                        and isinstance(key.value, str)
                        and isinstance(value, ast.Attribute)
                        and isinstance(value.value, ast.Name)
                        and value.value.id == "self"
                    }
                    if len(kinds) == len(node.keys) and all(kinds.values()):
                        tables.setdefault(cls_qname, {}).update(kinds)
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
        return f"{short(base.cls)}.{node.attr}"

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

    def _resolve(
        self,
        fn_qname: str,
        place: ast.AST,
        aliases: Dict[str, Set[Tuple[str, int]]],
    ) -> List[Tuple[str, int]]:
        """The (attribute, depth) pairs a write into ``place`` lands in.

        The root under any subscripts is an attribute, or a local name
        standing for the attributes it was bound from; ``depth`` counts
        the subscripts between the attribute and the written place.
        """
        depth = 0
        while isinstance(place, ast.Subscript):
            place, depth = place.value, depth + 1
        if isinstance(place, ast.Attribute):
            effect = self._effect_name(fn_qname, place)
            return [(effect, depth)] if effect else []
        if isinstance(place, ast.Name):
            return sorted(
                (attr, bound + depth) for attr, bound in aliases.get(place.id, ())
            )
        return []

    def _direct_effects(self, fn_qname: str) -> _DirectEffects:
        fn = self.table.functions[fn_qname]
        out = _DirectEffects()
        role_src = fn.ctx.role == "src"
        followers: Optional[Dict[int, Set[int]]] = None
        #: local name -> (attribute, depth) it was bound from (``y = x.attr``
        #: at depth 0, ``y = x.attr[i]`` at 1): a write into ``y`` writes
        #: ``x.attr``
        aliases: Dict[str, Set[Tuple[str, int]]] = {}
        #: id(written place) -> (shapes of the write, deepest subscript
        #: depth at which it keeps them): a write deeper into the
        #: container only enters it, except that ``del x.attr[k]`` clears
        forms: Dict[int, Tuple[FrozenSet[str], int]] = {}
        for node in ast.walk(fn.node):
            if (
                isinstance(node, (ast.Assign, ast.AnnAssign))
                and node.value is not None
            ):
                shapes = _RESET if _is_empty_value(node.value) else _ENTER
                bound = self._resolve(fn_qname, node.value, {})
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name):
                        aliases.setdefault(target.id, set()).update(bound)
                    for place in ast.walk(target):
                        forms[id(place)] = (shapes, 0)
            elif isinstance(node, ast.AugAssign):
                shapes = _DECREMENT if isinstance(node.op, ast.Sub) else _ENTER
                forms[id(node.target)] = (shapes, 0)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    for place in ast.walk(target):
                        forms[id(place)] = (_CLEAR, 1)

        def record(
            place: ast.AST, form: Tuple[FrozenSet[str], int], line: int
        ) -> None:
            shapes, keep_depth = form
            for effect, depth in self._resolve(fn_qname, place, aliases):
                out.writes.setdefault(effect, set()).update(
                    shapes if depth <= keep_depth else _ENTER
                )
                out.write_sites.append((effect, line))

        #: ``func`` nodes of calls: a method reference called is not a read
        called: Set[int] = set()
        for node in ast.walk(fn.node):
            if isinstance(node, (ast.Attribute, ast.Subscript)) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                record(node, forms.get(id(node), (_UNSHAPED, 0)), node.lineno)
            elif isinstance(node, ast.Attribute):
                effect = self._effect_name(fn_qname, node)
                if effect is not None and id(node) not in called:
                    out.reads.add(effect)
            elif isinstance(node, ast.Call):
                func = node.func
                called.add(id(func))
                if isinstance(func, ast.Attribute) and func.attr in _MUTATOR_SHAPES:
                    record(func.value, (_MUTATOR_SHAPES[func.attr], 0), node.lineno)
                if role_src and _is_schedule_call(node):
                    if followers is None:
                        followers = line_followers(fn.node)
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
                            frozenset(followers.get(node.lineno, ())),
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
    def closure(self, fn_qname: str) -> _DirectEffects:
        """The direct effects of ``fn`` and of every transitive callee,
        unioned in sorted callee order (memoized)."""
        merged = self._closures.get(fn_qname)
        if merged is not None:
            return merged
        merged = _DirectEffects()
        for callee in sorted(self.graph.transitive(fn_qname)):
            direct = self._direct.get(callee)
            if direct is None:
                continue
            merged.reads |= direct.reads
            for attr, shapes in direct.writes.items():
                merged.writes.setdefault(attr, set()).update(shapes)
            merged.guards |= direct.guards
            merged.schedules.extend(direct.schedules)
        self._closures[fn_qname] = merged
        return merged

    def _summarize(self, kind: str, handler_qname: str) -> HandlerEffects:
        closure = self.closure(handler_qname)
        return HandlerEffects(
            kind=kind,
            qname=handler_qname,
            reads=closure.reads,
            writes=set(closure.writes),
            guards=closure.guards,
            schedules=closure.schedules,
            direct=self._direct[handler_qname],
        )

    # ------------------------------------------------------------------
    # helpers shared by the lifecycle and protocol rules
    # ------------------------------------------------------------------
    def kind_of(self, attr: str) -> str:
        """Manifest kind of an attribute (missing -> unclassified)."""
        entry = self.project.state_manifest.get(attr)
        if isinstance(entry, dict):
            kind = entry.get("kind")
            if kind in MANIFEST_KINDS:
                return str(kind)
        return "unclassified"

    def handler_reachable(self) -> Dict[str, Set[str]]:
        """fn qname -> event kinds whose handlers (transitively) reach it."""
        reached: Dict[str, Set[str]] = {}
        for handlers in self.handlers.values():
            for kind, effects in handlers.items():
                for callee in self.graph.transitive(effects.qname):
                    reached.setdefault(callee, set()).add(kind)
        return reached

    def fn_anchor(self, qname: str) -> Tuple[FileContext, ast.AST]:
        """The file and ``def`` node a finding about a function points at."""
        fn = self.table.functions[qname]
        return fn.ctx, fn.node

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
        return any(
            {delay for _fn, _line, delay in self.schedule_sites.get(kind, ())}
            != {"delayed"}
            for kind in (kind_a, kind_b)
        )

    def effect_summary(self) -> Dict[str, Dict[str, object]]:
        """Deterministic whole-project summary for the checked-in baseline."""
        out: Dict[str, Dict[str, object]] = {}
        for cls in sorted(self.handlers):
            per_kind = {
                kind: effects.summary()
                for kind, effects in sorted(self.handlers[cls].items())
            }
            out[short(cls)] = per_kind
        return out


def effect_analysis_for(project: ProjectContext) -> EffectAnalysis:
    """The project's :class:`EffectAnalysis`, built once and shared by the
    race, lifecycle and protocol rules."""
    return project.memo("effects", EffectAnalysis)
