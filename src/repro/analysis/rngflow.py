"""Interprocedural RNG stream-flow analysis.

Determinism in this codebase hangs on *stream isolation*: every
``np.random.Generator`` is constructed from an explicit seeded stream key
(``default_rng([seed, 0xFA17])``-style) and owned by exactly one subsystem
— workload endpoints, churn schedules, fault plans each draw from their
own stream, so adding draws to one subsystem can never perturb another's
event sequence (the property PR 3/5/7 promise in prose).  The per-file
``module-rng`` rule bans *ambient* RNG; this module checks what it cannot:
where every explicitly constructed generator actually **flows**.

The analysis tracks each construction site through assignments, ``self``
attributes, call parameters and return values (a fixpoint over the
project call graph), records which subsystem every *draw* (method call on
a tracked generator) happens in, and reports:

``rng-stream-crossing``
    One generator drawn from by two or more subsystems — the isolation
    violation.  Suppress at the construction site when the sharing is
    deliberate (a documented single-stream helper).
``rng-unseeded-escape``
    An unseeded ``default_rng()`` whose value escapes its constructing
    function (stored on an attribute, returned, or passed on) — a
    nondeterministic stream leaking across a function boundary.
``rng-in-library-signature``
    A generator constructed in a ``def`` signature default — evaluated
    once at import time, silently shared by every call.

Like everything on the call graph, this is an under-approximation: flows
through containers, closures or ``**kwargs`` are not tracked, so a clean
report means "no crossing *found*", not "provably isolated".
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.callgraph import (
    CallGraph,
    SymbolTable,
    project_graph,
    subsystem_of,
)
from repro.analysis.rules import _EXPLICIT_RNG_CONSTRUCTORS, ImportTracker, tracked_imports
from repro.analysis.visitor import (
    FileContext,
    ProjectContext,
    ProjectRule,
    Violation,
    dotted_parts,
    register_project,
)

__all__ = [
    "RngOrigin",
    "RngFlowAnalysis",
    "RngStreamCrossingRule",
    "RngUnseededEscapeRule",
    "RngInLibrarySignatureRule",
]

#: upper bound on global fixpoint sweeps — flows converge in 2-3 passes on
#: this tree; the cap only guards against a pathological cyclic project
_MAX_FIXPOINT_PASSES = 12


@dataclass
class RngOrigin:
    """One generator construction site and everything that reaches it."""

    origin_id: int
    ctx: FileContext
    node: ast.Call
    fn_qname: str
    seeded: bool
    key: Optional[str]
    #: subsystem -> sorted set of functions that draw from this generator
    draws: Dict[str, Set[str]] = field(default_factory=dict)
    escapes: bool = False

    def describe_key(self) -> str:
        return f"stream key {self.key}" if self.key else (
            "seeded" if self.seeded else "UNSEEDED"
        )


def _render_key_elt(value: object) -> str:
    if isinstance(value, int) and value > 9:
        return hex(value)
    return repr(value) if isinstance(value, str) else str(value)


class RngFlowAnalysis:
    """The stream-flow fixpoint over one project."""

    def __init__(self, project: ProjectContext) -> None:
        self.project = project
        self.table: SymbolTable
        self.graph: CallGraph
        self.table, self.graph = project_graph(project)
        self._trackers: Dict[str, ImportTracker] = {}
        self.origins: List[RngOrigin] = []
        self._origin_by_site: Dict[Tuple[str, int, int], RngOrigin] = {}
        #: (class qname, attr) -> origin ids stored on that attribute
        self._attr_origins: Dict[Tuple[str, str], Set[int]] = {}
        #: (fn qname, param name) -> origin ids flowing in through the param
        self._param_origins: Dict[Tuple[str, str], Set[int]] = {}
        #: fn qname -> origin ids the function can return
        self._return_origins: Dict[str, Set[int]] = {}
        self._run_fixpoint()

    # ------------------------------------------------------------------
    # construction-site detection
    # ------------------------------------------------------------------
    def _tracker(self, ctx: FileContext) -> ImportTracker:
        tracker = self._trackers.get(ctx.path)
        if tracker is None:
            tracker = tracked_imports(ctx)
            self._trackers[ctx.path] = tracker
        return tracker

    def is_construction(self, ctx: FileContext, call: ast.Call) -> bool:
        resolved = self._tracker(ctx).resolve_call(call.func)
        if resolved is None:
            return False
        module, func = resolved
        return module == "numpy.random" and func in _EXPLICIT_RNG_CONSTRUCTORS

    def _origin_for(self, ctx: FileContext, call: ast.Call, fn_qname: str) -> RngOrigin:
        site = (ctx.path, call.lineno, call.col_offset)
        origin = self._origin_by_site.get(site)
        if origin is not None:
            return origin
        module = self.table.functions[fn_qname].module
        seeded = bool(call.args or call.keywords)
        key: Optional[str] = None
        if call.args:
            seed = call.args[0]
            if isinstance(seed, (ast.List, ast.Tuple)):
                parts = []
                for elt in seed.elts:
                    value = self.table.resolve_constant(module, elt)
                    if value is not None:
                        parts.append(_render_key_elt(value))
                    else:
                        chain = dotted_parts(elt)
                        parts.append(".".join(chain) if chain else "?")
                key = "[" + ", ".join(parts) + "]"
            else:
                value = self.table.resolve_constant(module, seed)
                if value is not None:
                    key = _render_key_elt(value)
                elif isinstance(seed, ast.Name):
                    key = seed.id
        origin = RngOrigin(
            origin_id=len(self.origins),
            ctx=ctx,
            node=call,
            fn_qname=fn_qname,
            seeded=seeded,
            key=key,
        )
        self.origins.append(origin)
        self._origin_by_site[site] = origin
        return origin

    # ------------------------------------------------------------------
    # flow fixpoint
    # ------------------------------------------------------------------
    def _run_fixpoint(self) -> None:
        functions = [
            fn
            for fn in self.graph.iter_functions()
            if fn.ctx.path in {ctx.path for ctx in self.project.files}
        ]
        for _ in range(_MAX_FIXPOINT_PASSES):
            self._changed = False
            for fn in functions:
                self._analyze_function(fn.qname)
            if not self._changed:
                break

    def _record(self, store: Dict, key: object, values: Set[int]) -> None:
        if not values:
            return
        bucket = store.setdefault(key, set())
        before = len(bucket)
        bucket.update(values)
        if len(bucket) != before:
            self._changed = True

    def origins_of(
        self, fn_qname: str, node: ast.AST, env: Dict[str, Set[int]]
    ) -> Set[int]:
        """Origin ids an expression can evaluate to."""
        fn = self.table.functions[fn_qname]
        if isinstance(node, ast.Name):
            return set(env.get(node.id, ()))
        if isinstance(node, ast.Attribute):
            base = self.graph.expr_type(fn_qname, node.value)
            if base is not None and base.cls is not None:
                found: Set[int] = set()
                for ancestor in self.table.ancestors(base.cls) or [base.cls]:
                    found |= self._attr_origins.get((ancestor, node.attr), set())
                return found
            return set()
        if isinstance(node, ast.Call):
            if self.is_construction(fn.ctx, node):
                return {self._origin_for(fn.ctx, node, fn_qname).origin_id}
            result: Set[int] = set()
            for callee in self.graph.resolve_call(fn_qname, node):
                result |= self._return_origins.get(callee, set())
            return result
        if isinstance(node, ast.IfExp):
            return self.origins_of(fn_qname, node.body, env) | self.origins_of(
                fn_qname, node.orelse, env
            )
        return set()

    def _mark_escape(self, ids: Set[int]) -> None:
        for origin_id in ids:
            if not self.origins[origin_id].escapes:
                self.origins[origin_id].escapes = True
                self._changed = True

    def _analyze_function(self, fn_qname: str) -> None:
        fn = self.table.functions[fn_qname]
        subsystem = subsystem_of(fn.module)
        env: Dict[str, Set[int]] = {}
        args = fn.node.args
        named = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        for arg in named:
            flowing = self._param_origins.get((fn_qname, arg.arg))
            if flowing:
                env[arg.arg] = set(flowing)
        # two local passes: late bindings (self.x set after use sites in
        # other methods) still converge through the global fixpoint
        for _ in range(2):
            for node in ast.walk(fn.node):
                if isinstance(node, ast.Assign):
                    ids = self.origins_of(fn_qname, node.value, env)
                    if not ids:
                        continue
                    for target in node.targets:
                        self._bind_target(fn_qname, target, ids, env)
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    ids = self.origins_of(fn_qname, node.value, env)
                    if ids:
                        self._bind_target(fn_qname, node.target, ids, env)
                elif isinstance(node, ast.Return) and node.value is not None:
                    ids = self.origins_of(fn_qname, node.value, env)
                    if ids:
                        self._mark_escape(ids)
                        self._record(self._return_origins, fn_qname, ids)
                elif isinstance(node, ast.Call):
                    self._analyze_call(fn_qname, subsystem, node, env)

    def _bind_target(
        self,
        fn_qname: str,
        target: ast.AST,
        ids: Set[int],
        env: Dict[str, Set[int]],
    ) -> None:
        if isinstance(target, ast.Name):
            bucket = env.setdefault(target.id, set())
            if not ids <= bucket:
                bucket.update(ids)
                self._changed = True
        elif isinstance(target, ast.Attribute):
            base = self.graph.expr_type(fn_qname, target.value)
            if base is not None and base.cls is not None:
                self._mark_escape(ids)
                self._record(self._attr_origins, (base.cls, target.attr), ids)

    def _analyze_call(
        self,
        fn_qname: str,
        subsystem: str,
        call: ast.Call,
        env: Dict[str, Set[int]],
    ) -> None:
        fn = self.table.functions[fn_qname]
        # a method call *on* a tracked generator is a draw in this subsystem
        if isinstance(call.func, ast.Attribute):
            holder = self.origins_of(fn_qname, call.func.value, env)
            for origin_id in holder:
                users = self.origins[origin_id].draws.setdefault(subsystem, set())
                if fn_qname not in users:
                    users.add(fn_qname)
                    self._changed = True
        # generator-valued arguments flow into resolvable callees' params
        callees = self.graph.resolve_call(fn_qname, call)
        arg_origins: List[Tuple[Optional[str], Set[int]]] = []
        for arg in call.args:
            arg_origins.append((None, self.origins_of(fn_qname, arg, env)))
        for kw in call.keywords:
            arg_origins.append((kw.arg, self.origins_of(fn_qname, kw.value, env)))
        if not any(ids for _, ids in arg_origins):
            return
        for _, ids in arg_origins:
            self._mark_escape(ids)
        for callee in callees:
            callee_fn = self.table.functions[callee]
            cargs = callee_fn.node.args
            named = list(cargs.posonlyargs) + list(cargs.args) + list(cargs.kwonlyargs)
            names = [a.arg for a in named]
            if callee_fn.cls is not None and names and names[0] in ("self", "cls"):
                names = names[1:]
            positional = [ids for name, ids in arg_origins if name is None]
            for index, ids in enumerate(positional):
                if index < len(names):
                    self._record(self._param_origins, (callee, names[index]), ids)
            for name, ids in arg_origins:
                if name is not None and name in names:
                    self._record(self._param_origins, (callee, name), ids)


def _analysis_for(project: ProjectContext) -> RngFlowAnalysis:
    return project.memo("rngflow", RngFlowAnalysis)


@register_project
class RngStreamCrossingRule(ProjectRule):
    name = "rng-stream-crossing"
    description = (
        "one np.random.Generator drawn from by two or more subsystems — "
        "seeded streams must stay within their owning subsystem"
    )
    roles = ("src",)

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        analysis = _analysis_for(project)
        for origin in analysis.origins:
            drawing = sorted(sub for sub, users in origin.draws.items() if users)
            if len(drawing) < 2:
                continue
            users = "; ".join(
                f"{sub} via {', '.join(sorted(origin.draws[sub]))}" for sub in drawing
            )
            yield self.violation(
                origin.ctx,
                origin.node,
                f"generator ({origin.describe_key()}) constructed in "
                f"{origin.fn_qname} is drawn from by {len(drawing)} subsystems "
                f"({users}) — draws in one subsystem perturb the other's "
                "event sequence; give each subsystem its own stream key",
                fingerprint=(
                    f"rng-stream-crossing::{origin.fn_qname}::{'+'.join(drawing)}"
                ),
            )


@register_project
class RngUnseededEscapeRule(ProjectRule):
    name = "rng-unseeded-escape"
    description = (
        "an unseeded default_rng() escapes its constructing function — "
        "a nondeterministic stream crossing a function boundary"
    )
    roles = ("src",)

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        analysis = _analysis_for(project)
        for origin in analysis.origins:
            if origin.seeded or not origin.escapes:
                continue
            yield self.violation(
                origin.ctx,
                origin.node,
                f"unseeded generator constructed in {origin.fn_qname} escapes "
                "the function (stored, returned or passed on) — every run "
                "draws a different stream; construct it from an explicit "
                "seeded stream key",
                fingerprint=f"rng-unseeded-escape::{origin.fn_qname}",
            )


@register_project
class RngInLibrarySignatureRule(ProjectRule):
    name = "rng-in-library-signature"
    description = (
        "a generator constructed in a def signature default is evaluated "
        "once at import and silently shared by every call"
    )
    roles = ("src",)

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        analysis = _analysis_for(project)
        for ctx in project.files:
            for node in ast.walk(ctx.tree):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    continue
                args = node.args
                defaults = list(args.defaults) + [
                    d for d in args.kw_defaults if d is not None
                ]
                for default in defaults:
                    if isinstance(default, ast.Call) and analysis.is_construction(
                        ctx, default
                    ):
                        name = getattr(node, "name", "<lambda>")
                        yield self.violation(
                            ctx,
                            default,
                            f"def {name}() constructs a generator in its "
                            "signature — the default is built once at import "
                            "and shared by every call; take a Generator "
                            "parameter (no default) instead",
                            fingerprint=(
                                f"rng-in-library-signature::{ctx.path}::{name}"
                            ),
                        )
