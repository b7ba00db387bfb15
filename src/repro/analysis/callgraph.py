"""Project-wide symbol table and call graph for whole-program rules.

Per-file rules see one AST at a time; the interprocedural analyses
(:mod:`repro.analysis.rngflow`, :mod:`repro.analysis.effects`,
:mod:`repro.analysis.races`) need to answer questions like *"which method
does ``self.queue.schedule(...)`` land on?"* across the whole tree.  This
module builds that substrate once per run:

:class:`SymbolTable`
    Modules, classes (with base-class resolution), functions/methods,
    import aliases, and *attribute typing* — ``self.x: T = ...``
    annotations, dataclass fields, and ``self.x = ClassName(...)``
    constructor assignments all type ``self.x`` so attribute calls
    resolve.  Container annotations (``Dict[int, QueryRuntime]``,
    ``List[SimWorker]``) record their element type, so ``self.runtimes[q]``
    and ``for w in self.workers`` are typed too.
:class:`CallGraph`
    One edge per resolvable call site (plain names, import aliases,
    ``self``-dispatch through inheritance, attribute calls on annotated
    values, ``ClassName(...)`` constructors), plus cached transitive
    closures.

Everything here is a *static under-approximation*: an unresolvable call
simply contributes no edge.  Rules built on top must therefore phrase
their findings as "provably hazardous", never "provably safe".
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.visitor import FileContext, ProjectContext, dotted_parts

__all__ = [
    "TypeRef",
    "FunctionInfo",
    "ClassInfo",
    "SymbolTable",
    "CallGraph",
    "module_name_for",
    "subsystem_of",
    "project_graph",
]

#: annotation heads treated as containers whose subscript/iteration yields
#: the element type (value slice for mappings)
_CONTAINER_HEADS = frozenset(
    {
        "List", "list", "Sequence", "MutableSequence", "Tuple", "tuple",
        "Set", "set", "FrozenSet", "frozenset", "Iterable", "Iterator",
        "Deque", "deque",
    }
)
_MAPPING_HEADS = frozenset({"Dict", "dict", "Mapping", "MutableMapping", "DefaultDict"})
_WRAPPER_HEADS = frozenset({"Optional", "Union", "Final", "ClassVar", "Annotated"})


@dataclass(frozen=True)
class TypeRef:
    """A resolved static type: a (possibly external) class, or a container.

    ``cls`` is a dotted qualified name — project classes resolve into
    :attr:`SymbolTable.classes`, externals (``numpy.random.Generator``)
    stay as opaque names rules can still match on.  ``elem`` is the
    element type of a container (mapping *values*, sequence/set elements).
    """

    cls: Optional[str] = None
    elem: Optional["TypeRef"] = None


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qname: str
    module: str
    name: str
    cls: Optional[str]  # enclosing class qname, None for module-level
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    ctx: FileContext


@dataclass
class ClassInfo:
    """One class definition with resolved bases and typed attributes."""

    qname: str
    module: str
    name: str
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, str] = field(default_factory=dict)
    attr_types: Dict[str, TypeRef] = field(default_factory=dict)


def module_name_for(path: str) -> str:
    """Dotted module name of a repo-relative file path.

    ``src/repro/engine/engine.py`` -> ``repro.engine.engine``; paths
    outside a package root fall back to their stem.
    """
    parts = list(Path(path).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    for anchor in ("repro", "tests", "benchmarks", "examples"):
        if anchor in parts:
            return ".".join(parts[parts.index(anchor) :])
    if "src" in parts:
        return ".".join(parts[parts.index("src") + 1 :])
    return ".".join(parts[-1:]) if parts else "<unknown>"


def subsystem_of(module: str) -> str:
    """The stream-isolation domain a module belongs to.

    ``repro.workload.generator`` -> ``workload`` — the top-level package
    under ``repro``; modules outside the package tree are their own
    subsystem (fixtures model one subsystem per top-level module).
    """
    parts = module.split(".")
    if parts[0] == "repro" and len(parts) > 1:
        return parts[1]
    return parts[0]


class SymbolTable:
    """Modules, classes, functions and import aliases of one project."""

    def __init__(self) -> None:
        self.modules: Dict[str, FileContext] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        #: module -> local name -> qualified name (class/function/module)
        self.symbols: Dict[str, Dict[str, str]] = {}
        #: module -> name -> literal constant value (ints/floats/strings)
        self.constants: Dict[str, Dict[str, object]] = {}
        self._ancestor_cache: Dict[str, List[str]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, project: ProjectContext) -> "SymbolTable":
        table = cls()
        for ctx in project.files:
            table._index_module(ctx)
        for info in table.classes.values():
            table._resolve_bases(info)
        for info in table.classes.values():
            table._collect_attr_types(info)
        return table

    def _index_module(self, ctx: FileContext) -> None:
        module = module_name_for(ctx.path)
        self.modules[module] = ctx
        scope = self.symbols.setdefault(module, {})
        consts = self.constants.setdefault(module, {})
        for stmt in ctx.tree.body:
            if isinstance(stmt, ast.ClassDef):
                qname = f"{module}.{stmt.name}"
                info = ClassInfo(qname=qname, module=module, name=stmt.name, node=stmt)
                self.classes[qname] = info
                scope[stmt.name] = qname
                for member in stmt.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        fq = f"{qname}.{member.name}"
                        info.methods[member.name] = fq
                        self.functions[fq] = FunctionInfo(
                            qname=fq,
                            module=module,
                            name=member.name,
                            cls=qname,
                            node=member,
                            ctx=ctx,
                        )
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fq = f"{module}.{stmt.name}"
                scope[stmt.name] = fq
                self.functions[fq] = FunctionInfo(
                    qname=fq, module=module, name=stmt.name, cls=None, node=stmt, ctx=ctx
                )
            elif isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    local = alias.asname or alias.name.split(".")[0]
                    scope[local] = alias.name if alias.asname else alias.name.split(".")[0]
            elif isinstance(stmt, ast.ImportFrom):
                base = self._import_base(module, stmt)
                if base is None:
                    continue
                for alias in stmt.names:
                    local = alias.asname or alias.name
                    scope[local] = f"{base}.{alias.name}"
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name) and isinstance(stmt.value, ast.Constant):
                    consts[target.id] = stmt.value.value

    @staticmethod
    def _import_base(module: str, stmt: ast.ImportFrom) -> Optional[str]:
        if stmt.level == 0:
            return stmt.module
        # relative import: resolve against the importing module's package
        package = module.split(".")[: -stmt.level]
        if not package and stmt.module is None:
            return None
        return ".".join(package + ([stmt.module] if stmt.module else []))

    def _resolve_bases(self, info: ClassInfo) -> None:
        for base in info.node.bases:
            chain = dotted_parts(base)
            if chain is None:
                continue
            resolved = self.resolve_symbol(info.module, chain)
            if resolved in self.classes:
                info.bases.append(resolved)

    # ------------------------------------------------------------------
    # symbol + annotation resolution
    # ------------------------------------------------------------------
    def resolve_symbol(self, module: str, chain: Sequence[str]) -> Optional[str]:
        """Resolve a dotted name chain seen in ``module`` to a qualified name."""
        scope = self.symbols.get(module, {})
        head = scope.get(chain[0])
        if head is None:
            # a module referring to its own qualified prefix ("repro.x.y")
            joined = ".".join(chain)
            if joined in self.classes or joined in self.functions:
                return joined
            return None
        full = ".".join([head] + list(chain[1:]))
        # follow one level of re-export: "pkg.Name" where pkg maps the name
        if full not in self.classes and full not in self.functions:
            parts = full.split(".")
            for cut in range(len(parts) - 1, 0, -1):
                prefix, rest = ".".join(parts[:cut]), parts[cut:]
                inner = self.symbols.get(prefix, {}).get(rest[0]) if rest else None
                if inner is not None:
                    return ".".join([inner] + rest[1:])
        return full

    def resolve_annotation(self, module: str, node: Optional[ast.AST]) -> Optional[TypeRef]:
        """A :class:`TypeRef` for an annotation expression, if recognizable."""
        if node is None:
            return None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(node, ast.Subscript):
            head = node.value
            head_name = None
            if isinstance(head, ast.Name):
                head_name = head.id
            elif isinstance(head, ast.Attribute):
                head_name = head.attr
            args: List[ast.AST] = (
                list(node.slice.elts) if isinstance(node.slice, ast.Tuple) else [node.slice]
            )
            if head_name in _WRAPPER_HEADS:
                for arg in args:
                    if isinstance(arg, ast.Constant) and arg.value is None:
                        continue
                    resolved = self.resolve_annotation(module, arg)
                    if resolved is not None:
                        return resolved
                return None
            if head_name in _MAPPING_HEADS and len(args) == 2:
                return TypeRef(elem=self.resolve_annotation(module, args[1]))
            if head_name in _CONTAINER_HEADS and args:
                return TypeRef(elem=self.resolve_annotation(module, args[0]))
            return None
        chain = dotted_parts(node)
        if chain is None:
            return None
        resolved = self.resolve_symbol(module, chain)
        if resolved is not None:
            return TypeRef(cls=resolved)
        # external dotted names stay opaque but matchable (numpy.random.Generator)
        scope = self.symbols.get(module, {})
        head = scope.get(chain[0], chain[0])
        return TypeRef(cls=".".join([head] + list(chain[1:])))

    def resolve_constant(self, module: str, node: ast.AST) -> Optional[object]:
        """Literal value of an expression: constants and module constants."""
        if isinstance(node, ast.Constant):
            return node.value
        chain = dotted_parts(node)
        if chain is not None and len(chain) == 1:
            return self.constants.get(module, {}).get(chain[0])
        if chain is not None and len(chain) == 2:
            # OtherModule.CONST through an import alias
            target = self.symbols.get(module, {}).get(chain[0])
            if target is not None:
                return self.constants.get(target, {}).get(chain[1])
        return None

    # ------------------------------------------------------------------
    # class structure
    # ------------------------------------------------------------------
    def ancestors(self, qname: str) -> List[str]:
        """The class and its project-internal bases, nearest first."""
        cached = self._ancestor_cache.get(qname)
        if cached is not None:
            return cached
        order: List[str] = []
        queue = [qname]
        while queue:
            current = queue.pop(0)
            if current in order or current not in self.classes:
                continue
            order.append(current)
            queue.extend(self.classes[current].bases)
        self._ancestor_cache[qname] = order
        return order

    def method(self, cls_qname: str, name: str) -> Optional[str]:
        """Resolve a method through the class and its bases."""
        for ancestor in self.ancestors(cls_qname):
            found = self.classes[ancestor].methods.get(name)
            if found is not None:
                return found
        return None

    def attr_type(self, cls_qname: str, attr: str) -> Optional[TypeRef]:
        """Static type of ``<instance>.<attr>`` through the class hierarchy."""
        for ancestor in self.ancestors(cls_qname):
            found = self.classes[ancestor].attr_types.get(attr)
            if found is not None:
                return found
        return None

    def return_type(self, fn_qname: str) -> Optional[TypeRef]:
        info = self.functions.get(fn_qname)
        if info is None:
            return None
        returns = getattr(info.node, "returns", None)
        resolved = self.resolve_annotation(info.module, returns)
        if resolved is not None:
            return resolved
        # a constructor "returns" its class
        if info.name == "__init__" and info.cls is not None:
            return TypeRef(cls=info.cls)
        return None

    # ------------------------------------------------------------------
    # attribute typing
    # ------------------------------------------------------------------
    def _collect_attr_types(self, info: ClassInfo) -> None:
        # class-level annotated fields (dataclasses and plain classes)
        for stmt in info.node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                resolved = self.resolve_annotation(info.module, stmt.annotation)
                if resolved is not None:
                    info.attr_types.setdefault(stmt.target.id, resolved)
        # ``self.x`` bindings inside methods (annotated or constructor-typed)
        for method_qname in info.methods.values():
            fn = self.functions[method_qname]
            for node in ast.walk(fn.node):
                if isinstance(node, ast.AnnAssign):
                    target = node.target
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        resolved = self.resolve_annotation(info.module, node.annotation)
                        if resolved is not None:
                            info.attr_types.setdefault(target.attr, resolved)
                elif isinstance(node, ast.Assign):
                    inferred = self._infer_value_type(info.module, node.value)
                    if inferred is None:
                        continue
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            info.attr_types.setdefault(target.attr, inferred)

    def _infer_value_type(self, module: str, value: ast.AST) -> Optional[TypeRef]:
        """Type of a constructor-shaped expression (``C()``, ``[C() ...]``)."""
        if isinstance(value, ast.Call):
            chain = dotted_parts(value.func)
            if chain is None:
                return None
            resolved = self.resolve_symbol(module, chain)
            if resolved in self.classes:
                return TypeRef(cls=resolved)
            if resolved in self.functions:
                return self.return_type(resolved)
            return None
        if isinstance(value, (ast.ListComp, ast.SetComp)):
            elem = self._infer_value_type(module, value.elt)
            if elem is not None:
                return TypeRef(elem=elem)
        return None


class CallGraph:
    """Resolvable call edges between the project's functions."""

    def __init__(self, table: SymbolTable) -> None:
        self.table = table
        self.edges: Dict[str, Set[str]] = {}
        #: call sites that resolved: fn qname -> [(callee qname, Call node)]
        self.sites: Dict[str, List[Tuple[str, ast.Call]]] = {}
        self._closure_cache: Dict[str, Set[str]] = {}
        self._local_env_cache: Dict[str, Dict[str, TypeRef]] = {}
        for fn in table.functions.values():
            self._build_edges(fn)

    # ------------------------------------------------------------------
    # local type environments
    # ------------------------------------------------------------------
    def local_env(self, fn_qname: str) -> Dict[str, TypeRef]:
        """name -> type for a function's parameters and inferable locals."""
        cached = self._local_env_cache.get(fn_qname)
        if cached is not None:
            return cached
        fn = self.table.functions[fn_qname]
        env: Dict[str, TypeRef] = {}
        args = fn.node.args
        named = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        for index, arg in enumerate(named):
            if index == 0 and fn.cls is not None and arg.arg in ("self", "cls"):
                env[arg.arg] = TypeRef(cls=fn.cls)
                continue
            resolved = self.table.resolve_annotation(fn.module, arg.annotation)
            if resolved is not None:
                env[arg.arg] = resolved
        # one forward pass over simple binding forms (no joins: last wins)
        for node in ast.walk(fn.node):
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                resolved = self.table.resolve_annotation(fn.module, node.annotation)
                if resolved is not None:
                    env[node.target.id] = resolved
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                inferred = self.expr_type(fn_qname, node.value, env)
                if inferred is not None:
                    env[target.id] = inferred
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if isinstance(node.target, ast.Name):
                    iterated = self.expr_type(fn_qname, node.iter, env)
                    if iterated is not None and iterated.elem is not None:
                        env[node.target.id] = iterated.elem
        self._local_env_cache[fn_qname] = env
        return env

    def expr_type(
        self,
        fn_qname: str,
        node: ast.AST,
        env: Optional[Dict[str, TypeRef]] = None,
    ) -> Optional[TypeRef]:
        """Static type of an expression inside a function, if resolvable."""
        if env is None:
            env = self.local_env(fn_qname)
        fn = self.table.functions[fn_qname]
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self.expr_type(fn_qname, node.value, env)
            if base is not None and base.cls is not None:
                return self.table.attr_type(base.cls, node.attr)
            return None
        if isinstance(node, ast.Subscript):
            base = self.expr_type(fn_qname, node.value, env)
            if base is not None:
                return base.elem
            return None
        if isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in ("values", "get")
            ):
                base = self.expr_type(fn_qname, node.func.value, env)
                if base is not None and base.elem is not None:
                    # dict.values() yields the elements; dict.get() yields
                    # one element (Optional-ness is not modelled, same as
                    # subscript access)
                    if node.func.attr == "values":
                        return TypeRef(elem=base.elem)
                    return base.elem
            callees = self.resolve_call(fn_qname, node, env)
            for callee in callees:
                returned = self.table.return_type(callee)
                if returned is not None:
                    return returned
            inferred = self.table._infer_value_type(fn.module, node)
            return inferred
        if isinstance(node, ast.IfExp):
            return self.expr_type(fn_qname, node.body, env) or self.expr_type(
                fn_qname, node.orelse, env
            )
        return None

    # ------------------------------------------------------------------
    # call resolution
    # ------------------------------------------------------------------
    def resolve_call(
        self,
        fn_qname: str,
        call: ast.Call,
        env: Optional[Dict[str, TypeRef]] = None,
    ) -> List[str]:
        """Qualified names a call site can land on (possibly empty)."""
        fn = self.table.functions[fn_qname]
        func = call.func
        if isinstance(func, ast.Name):
            resolved = self.table.resolve_symbol(fn.module, [func.id])
            if resolved is None:
                return []
            if resolved in self.table.classes:
                init = self.table.method(resolved, "__init__")
                return [init] if init else []
            if resolved in self.table.functions:
                return [resolved]
            return []
        if isinstance(func, ast.Attribute):
            # fully dotted module path first (alias.helper(), pkg.mod.fn())
            chain = dotted_parts(func)
            if chain is not None:
                resolved = self.table.resolve_symbol(fn.module, chain)
                if resolved in self.table.functions:
                    return [resolved]
                if resolved in self.table.classes:
                    init = self.table.method(resolved, "__init__")
                    return [init] if init else []
            base = self.expr_type(fn_qname, func.value, env)
            if base is not None and base.cls is not None:
                found = self.table.method(base.cls, func.attr)
                if found is not None:
                    return [found]
        return []

    def _build_edges(self, fn: FunctionInfo) -> None:
        env = self.local_env(fn.qname)
        edges = self.edges.setdefault(fn.qname, set())
        sites = self.sites.setdefault(fn.qname, [])
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            for callee in self.resolve_call(fn.qname, node, env):
                edges.add(callee)
                sites.append((callee, node))

    def transitive(self, fn_qname: str) -> Set[str]:
        """The function plus every transitively resolvable callee."""
        cached = self._closure_cache.get(fn_qname)
        if cached is not None:
            return cached
        closure: Set[str] = set()
        stack = [fn_qname]
        while stack:
            current = stack.pop()
            if current in closure:
                continue
            closure.add(current)
            stack.extend(self.edges.get(current, ()))
        self._closure_cache[fn_qname] = closure
        return closure

    def iter_functions(self) -> Iterator[FunctionInfo]:
        for qname in sorted(self.table.functions):
            yield self.table.functions[qname]


def project_graph(project: ProjectContext) -> Tuple[SymbolTable, CallGraph]:
    """The (symbol table, call graph) pair for a project, built once."""
    graph = project.memo("callgraph", lambda p: CallGraph(SymbolTable.build(p)))
    return graph.table, graph
