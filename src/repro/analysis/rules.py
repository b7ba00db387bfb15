"""The built-in ``repro-lint`` rule catalog.

Each rule encodes one project invariant that the discrete-event simulation
relies on (see ``docs/analysis.md`` for the rationale and examples):

``module-rng``
    No calls into the *ambient* RNGs (``random.*`` module functions,
    ``np.random.*`` legacy globals) in library code — randomness must flow
    through an explicitly threaded ``np.random.Generator`` (seeded streams
    keep event orderings reproducible).
``wall-clock``
    No wall-clock reads (``time.time``/``perf_counter``/``datetime.now``
    …) in library code: the engine runs in virtual time, and a wall-clock
    dependence makes runs machine-dependent.  The bench harness is exempt.
``csr-mutation``
    Never write through a cached ``DiGraph.csr()`` / ``csr_in()`` view —
    the arrays are the graph's own buffers, shared by every kernel.
``bare-assert``
    No bare ``assert`` for runtime invariants in library code: asserts are
    stripped under ``python -O``; raise a :class:`repro.errors.ReproError`
    subclass instead.
``mutable-default``
    No mutable default argument values (shared across calls).
``unordered-iteration``
    No iteration over ``set`` expressions in loops that submit simulation
    events — set order is not part of the program's semantics; iterate
    ``sorted(...)``.
``shadow-builtin``
    Do not bind names that shadow common builtins (``id``, ``type``, …).
``untyped-def``
    Strict-typing gate for ``repro/core``, ``repro/engine`` and
    ``repro/analysis``: every
    function signature fully annotated (checked by mypy in CI; this rule
    keeps the annotation *coverage* honest without needing mypy locally).
``swallowed-error``
    No broad exception handlers that silently discard the error (``except:
    pass`` / ``except Exception: pass``) in library code — a swallowed
    error in the simulation turns a hard failure into silent divergence.
    Narrow handlers (``except KeyError: pass``) and broad handlers that
    actually *do* something (log, re-raise, fall back) stay legal.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.visitor import FileContext, Rule, Violation, dotted_parts, register

__all__ = [
    "ModuleRngRule",
    "WallClockRule",
    "CsrMutationRule",
    "BareAssertRule",
    "MutableDefaultRule",
    "UnorderedIterationRule",
    "ShadowBuiltinRule",
    "SwallowedErrorRule",
    "UntypedDefRule",
]


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
class ImportTracker(ast.NodeVisitor):
    """Resolves local names to the stdlib/numpy modules they alias.

    Tracks ``import random as r`` / ``import numpy as np`` /
    ``import numpy.random as nr`` / ``from numpy import random`` /
    ``from random import shuffle as sh`` — enough to resolve every
    realistic spelling of an ambient-RNG or wall-clock call.
    """

    def __init__(self) -> None:
        #: local alias -> canonical module path ("random", "numpy", ...)
        self.module_aliases: Dict[str, str] = {}
        #: local name -> (module, function) for from-imports
        self.from_imports: Dict[str, Tuple[str, str]] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            if alias.asname is None:
                # ``import numpy.random`` binds "numpy"
                self.module_aliases[local] = alias.name.split(".")[0]
            else:
                self.module_aliases[local] = alias.name

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            return
        for alias in node.names:
            local = alias.asname or alias.name
            submodule = f"{node.module}.{alias.name}"
            if submodule in ("numpy.random", "datetime.datetime"):
                self.module_aliases[local] = submodule
            else:
                self.from_imports[local] = (node.module, alias.name)

    def resolve_call(self, func: ast.AST) -> Optional[Tuple[str, str]]:
        """Canonical ``(module, function)`` of a call target, if resolvable."""
        if isinstance(func, ast.Name):
            return self.from_imports.get(func.id)
        parts = dotted_parts(func)
        if not parts or len(parts) < 2:
            return None
        head = self.module_aliases.get(parts[0])
        if head is None:
            return None
        full = [head] + parts[1:]
        return ".".join(full[:-1]), full[-1]


def tracked_imports(ctx: FileContext) -> ImportTracker:
    tracker = ImportTracker()
    tracker.visit(ctx.tree)
    return tracker


# ----------------------------------------------------------------------
# module-rng
# ----------------------------------------------------------------------
#: np.random entry points that *construct* explicit generators (allowed)
_EXPLICIT_RNG_CONSTRUCTORS = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "MT19937",
        "SFC64",
    }
)


@register
class ModuleRngRule(Rule):
    name = "module-rng"
    description = (
        "no ambient RNG calls (random.* / np.random.* globals) in library "
        "code; thread an explicit np.random.Generator"
    )
    roles = ("src",)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        tracker = tracked_imports(ctx)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = tracker.resolve_call(node.func)
            if resolved is None:
                continue
            module, func = resolved
            if module == "random" or (
                module == "numpy" and func == "random"
            ):
                yield self.violation(
                    ctx,
                    node,
                    f"ambient RNG call {module}.{func}() — thread an explicit "
                    "np.random.Generator (seeded stream) instead",
                )
            elif module == "numpy.random" and func not in _EXPLICIT_RNG_CONSTRUCTORS:
                yield self.violation(
                    ctx,
                    node,
                    f"ambient RNG call np.random.{func}() draws from the "
                    "process-global stream — use np.random.default_rng(seed)",
                )


# ----------------------------------------------------------------------
# wall-clock
# ----------------------------------------------------------------------
_WALL_CLOCK_FUNCS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "clock",
        "sleep",
    }
)
_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})


@register
class WallClockRule(Rule):
    name = "wall-clock"
    description = (
        "no wall-clock reads in library code (the engine runs in virtual "
        "time); bench harness is exempt"
    )
    roles = ("src",)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        tracker = tracked_imports(ctx)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = tracker.resolve_call(node.func)
            if resolved is None:
                continue
            module, func = resolved
            if module == "time" and func in _WALL_CLOCK_FUNCS:
                yield self.violation(
                    ctx,
                    node,
                    f"wall-clock call time.{func}() in simulated code — use "
                    "virtual time (EventQueue.now) or move it to the bench "
                    "harness",
                )
            elif (
                module in ("datetime", "datetime.datetime")
                and func in _DATETIME_FUNCS
            ):
                yield self.violation(
                    ctx,
                    node,
                    f"wall-clock call datetime {func}() in simulated code",
                )


# ----------------------------------------------------------------------
# csr-mutation
# ----------------------------------------------------------------------
_NDARRAY_MUTATORS = frozenset(
    {"fill", "sort", "put", "resize", "partition", "itemset", "byteswap", "setfield"}
)
_CSR_FIELDS = frozenset({"indptr", "indices", "weights"})


class _CsrScopeVisitor(ast.NodeVisitor):
    """Walks one function (or module) scope tracking csr-view bindings."""

    def __init__(
        self, rule: "CsrMutationRule", ctx: FileContext, names: Set[str]
    ) -> None:
        self.rule = rule
        self.ctx = ctx
        #: names bound to a CSRView (``view = g.csr()``)
        self.view_names = set(names)
        #: names bound to one of a view's arrays (``indptr, ... = g.csr()``)
        self.array_names: Set[str] = set()
        self.findings: List[Violation] = []

    # -- binding tracking ------------------------------------------------
    @staticmethod
    def _is_csr_call(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("csr", "csr_in")
        )

    def _root_kind(self, node: ast.AST) -> Optional[str]:
        """Whether an expression reads through a csr view.

        Returns ``"view"`` for the view itself, ``"array"`` once the walk
        crosses a CSR field access or an array alias, else ``None``.
        """
        depth_fields = 0
        while True:
            if isinstance(node, ast.Subscript):
                node = node.value
            elif isinstance(node, ast.Attribute):
                if node.attr in _CSR_FIELDS:
                    depth_fields += 1
                node = node.value
            else:
                break
        if self._is_csr_call(node):
            return "array" if depth_fields else "view"
        if isinstance(node, ast.Name):
            if node.id in self.view_names:
                return "array" if depth_fields else "view"
            if node.id in self.array_names:
                return "array"
        return None

    def visit_Assign(self, node: ast.Assign) -> None:
        self._flag_write_targets(node.targets, node)
        if self._is_csr_call(node.value) or (
            isinstance(node.value, ast.Name) and node.value.id in self.view_names
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.view_names.add(target.id)
                elif isinstance(target, ast.Tuple):
                    # ``indptr, indices, weights = graph.csr()``
                    for elt in target.elts:
                        if isinstance(elt, ast.Name):
                            self.array_names.add(elt.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._flag_write_targets([node.target], node)
        if node.value is not None and self._is_csr_call(node.value):
            if isinstance(node.target, ast.Name):
                self.view_names.add(node.target.id)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._flag_write_targets([node.target], node)
        self.generic_visit(node)

    def _flag_write_targets(self, targets: Sequence[ast.AST], stmt: ast.AST) -> None:
        for target in targets:
            if isinstance(target, (ast.Subscript, ast.Attribute)):
                if self._root_kind(target) is not None:
                    self.findings.append(
                        self.rule.violation(
                            self.ctx,
                            stmt,
                            "write through a cached csr()/csr_in() view — the "
                            "arrays are the graph's shared buffers; copy() "
                            "before mutating",
                        )
                    )

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _NDARRAY_MUTATORS
            and self._root_kind(func.value) == "array"
        ):
            self.findings.append(
                self.rule.violation(
                    self.ctx,
                    node,
                    f"in-place .{func.attr}() on a cached csr()/csr_in() "
                    "array — copy() before mutating",
                )
            )
        self.generic_visit(node)

    # nested scopes get a copy of the current bindings
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._nested(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._nested(node)

    def _nested(self, node: ast.AST) -> None:
        inner = _CsrScopeVisitor(self.rule, self.ctx, self.view_names)
        inner.array_names = set(self.array_names)
        for stmt in getattr(node, "body", []):
            inner.visit(stmt)
        self.findings.extend(inner.findings)


@register
class CsrMutationRule(Rule):
    name = "csr-mutation"
    description = "no mutation of cached DiGraph.csr()/csr_in() views"
    roles = ("src", "bench")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        visitor = _CsrScopeVisitor(self, ctx, set())
        visitor.visit(ctx.tree)
        yield from visitor.findings


# ----------------------------------------------------------------------
# bare-assert
# ----------------------------------------------------------------------
@register
class BareAssertRule(Rule):
    name = "bare-assert"
    description = (
        "no bare assert for runtime invariants in library code "
        "(stripped under python -O); raise a ReproError subclass"
    )
    roles = ("src",)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assert):
                yield self.violation(
                    ctx,
                    node,
                    "assert is stripped under python -O — raise "
                    "EngineError/ReproError (or SanitizerError) instead",
                )


# ----------------------------------------------------------------------
# mutable-default
# ----------------------------------------------------------------------
_MUTABLE_FACTORIES = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "Counter", "OrderedDict", "deque"}
)


@register
class MutableDefaultRule(Rule):
    name = "mutable-default"
    description = "no mutable default argument values (shared across calls)"
    roles = ("src", "bench", "tests")

    @staticmethod
    def _is_mutable(node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None
            )
            return name in _MUTABLE_FACTORIES
        return False

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            for default in list(args.defaults) + [
                d for d in args.kw_defaults if d is not None
            ]:
                if self._is_mutable(default):
                    yield self.violation(
                        ctx,
                        default,
                        "mutable default argument is shared across calls — "
                        "default to None and allocate inside the function",
                    )


# ----------------------------------------------------------------------
# unordered-iteration
# ----------------------------------------------------------------------
_EVENT_SUBMISSION_ATTRS = frozenset(
    {"schedule", "submit", "submit_update", "submit_all"}
)
_SET_ANNOTATIONS = frozenset({"Set", "set", "FrozenSet", "frozenset", "MutableSet"})


class _SetAnnotationCollector(ast.NodeVisitor):
    """Collects names/attributes annotated as sets anywhere in the file."""

    def __init__(self) -> None:
        self.set_names: Set[str] = set()
        self.set_attrs: Set[str] = set()

    @staticmethod
    def _annotation_is_set(node: ast.AST) -> bool:
        if isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Name):
            return node.id in _SET_ANNOTATIONS
        if isinstance(node, ast.Attribute):  # typing.Set[...]
            return node.attr in _SET_ANNOTATIONS
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            head = node.value.split("[", 1)[0].strip()
            return head.split(".")[-1] in _SET_ANNOTATIONS
        return False

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if self._annotation_is_set(node.annotation):
            if isinstance(node.target, ast.Name):
                self.set_names.add(node.target.id)
            elif isinstance(node.target, ast.Attribute):
                self.set_attrs.add(node.target.attr)
        self.generic_visit(node)


@register
class UnorderedIterationRule(Rule):
    name = "unordered-iteration"
    description = (
        "no iteration over sets in loops that submit simulation events "
        "(set order is arbitrary); iterate sorted(...)"
    )
    roles = ("src",)

    def _is_set_expr(self, node: ast.AST, names: Set[str], attrs: Set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("set", "frozenset"):
                return True
        if isinstance(node, ast.Name):
            return node.id in names
        if isinstance(node, ast.Attribute):
            return node.attr in attrs
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left, names, attrs) or self._is_set_expr(
                node.right, names, attrs
            )
        return False

    @staticmethod
    def _submits_events(body: Sequence[ast.stmt]) -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _EVENT_SUBMISSION_ATTRS
                ):
                    return True
        return False

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        collector = _SetAnnotationCollector()
        collector.visit(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            if not self._is_set_expr(node.iter, collector.set_names, collector.set_attrs):
                continue
            if self._submits_events(node.body):
                yield self.violation(
                    ctx,
                    node,
                    "iterating a set while submitting events makes the event "
                    "order depend on hash order — iterate sorted(...)",
                )


# ----------------------------------------------------------------------
# shadow-builtin
# ----------------------------------------------------------------------
_SHADOW_DENYLIST = frozenset(
    {
        "id", "type", "list", "dict", "set", "tuple", "frozenset",
        "input", "filter", "map", "next", "iter", "range", "len",
        "sum", "min", "max", "all", "any", "sorted", "reversed",
        "str", "int", "float", "bool", "bytes", "object", "zip",
        "open", "hash", "format", "vars", "dir", "print", "repr",
        "round", "abs", "pow", "slice", "property", "enumerate",
        "callable", "compile", "eval", "exec", "bytearray",
    }
)


@register
class ShadowBuiltinRule(Rule):
    name = "shadow-builtin"
    description = "no bindings that shadow common builtins (id, type, ...)"
    roles = ("src",)

    def _flag(self, ctx: FileContext, node: ast.AST, name: str) -> Violation:
        return self.violation(
            ctx, node, f"binding {name!r} shadows the builtin of the same name"
        )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                for arg in (
                    list(args.posonlyargs)
                    + list(args.args)
                    + list(args.kwonlyargs)
                    + ([args.vararg] if args.vararg else [])
                    + ([args.kwarg] if args.kwarg else [])
                ):
                    if arg.arg in _SHADOW_DENYLIST:
                        yield self._flag(ctx, arg, arg.arg)
                if (
                    not isinstance(node, ast.Lambda)
                    and node.name in _SHADOW_DENYLIST
                ):
                    yield self._flag(ctx, node, node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                if node.id in _SHADOW_DENYLIST:
                    yield self._flag(ctx, node, node.id)
            elif isinstance(node, ast.ExceptHandler):
                if node.name in _SHADOW_DENYLIST:
                    yield self._flag(ctx, node, node.name)


# ----------------------------------------------------------------------
# swallowed-error
# ----------------------------------------------------------------------
_BROAD_EXCEPTION_NAMES = frozenset({"Exception", "BaseException"})


@register
class SwallowedErrorRule(Rule):
    name = "swallowed-error"
    description = (
        "no broad exception handlers that silently discard the error "
        "(except: pass / except Exception: pass) in library code"
    )
    roles = ("src",)

    @classmethod
    def _is_broad(cls, node: Optional[ast.expr]) -> bool:
        """Whether the handler catches Exception/BaseException (or everything)."""
        if node is None:  # bare ``except:``
            return True
        if isinstance(node, ast.Name):
            return node.id in _BROAD_EXCEPTION_NAMES
        if isinstance(node, ast.Attribute):  # builtins.Exception
            return node.attr in _BROAD_EXCEPTION_NAMES
        if isinstance(node, ast.Tuple):
            return any(cls._is_broad(elt) for elt in node.elts)
        return False

    @staticmethod
    def _is_inert(stmt: ast.stmt) -> bool:
        """A statement that cannot handle the error: pass / ... / docstring."""
        if isinstance(stmt, ast.Pass):
            return True
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            return True  # ``...`` or a bare string
        return False

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            if all(self._is_inert(stmt) for stmt in node.body):
                yield self.violation(
                    ctx,
                    node,
                    "broad except silently swallows the error — catch the "
                    "specific exception, or handle/log/re-raise it",
                )


# ----------------------------------------------------------------------
# untyped-def (strict typing gate for core/, engine/ and analysis/)
# ----------------------------------------------------------------------
_TYPED_PACKAGES = ("repro/core/", "repro/engine/", "repro/analysis/")


@register
class UntypedDefRule(Rule):
    name = "untyped-def"
    description = (
        "strict typing gate: functions in repro/core, repro/engine and "
        "repro/analysis must have fully annotated signatures"
    )
    roles = ("src",)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        normalized = ctx.path.replace("\\", "/")
        if not any(pkg in normalized for pkg in _TYPED_PACKAGES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            missing: List[str] = []
            args = node.args
            named = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            for index, arg in enumerate(named):
                if index == 0 and arg.arg in ("self", "cls"):
                    continue
                if arg.annotation is None:
                    missing.append(arg.arg)
            if node.returns is None:
                missing.append("return")
            if missing:
                yield self.violation(
                    ctx,
                    node,
                    f"def {node.name}() is missing annotations for: "
                    + ", ".join(missing),
                )
