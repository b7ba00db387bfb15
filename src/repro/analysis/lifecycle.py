"""State-lifecycle analysis: checkpoint completeness, restore symmetry,
per-query reset coverage and atomic invariant-group mutation.

PR 7's recovery guarantee ("answers after injected crashes are
bit-identical to fault-free runs") rests on :class:`QueryCheckpoint`
``capture``/``restore`` *happening* to enumerate every mutable field the
engine's event handlers touch, and on ``_finish_query`` releasing every
engine-side per-query entry.  Nothing enforced either contract — a new
per-query field silently survives a crash un-restored, or leaks across
queries after finish.  This module turns the PR 8 effect summaries into
that contract:

state inventory
    Every ``Class.attr`` transitively *written* by any event handler of a
    dispatcher class (see :attr:`EffectAnalysis.dispatch`), minus benign
    observers and exception classes.  Each attribute is classified in the
    checked-in ``state_manifest`` section of ``analysis_baseline.json``:

    ``per-query``
        Belongs to one query's lifecycle — must be checkpointed (if it
        lives on the checkpoint's runtime class) or released on the
        finish path (if it lives engine-side, keyed by query id).
    ``engine-global``
        Cluster/controller state that outlives any single query.
    ``derived``
        Reconstructible from other state (barrier transients rebuilt by
        ``reset_barrier_protocol``, dense caches, kernel scratch).
    ``unclassified``
        What ``--write-baseline`` emits for a new attribute; rules treat
        it as ``per-query`` (the conservative reading) until a human
        classifies it with a reason.

``checkpoint-gap``
    A per-query attribute on a checkpoint's runtime class that
    ``capture`` (transitively) never reads.
``restore-asymmetry``
    An attribute ``capture`` reads but ``restore`` never writes back, or
    a ``restore`` assignment sourcing a checkpoint slot whose value was
    never captured.
``finish-leak``
    A per-query attribute living *outside* the runtime class (engine-side
    maps keyed by query id) with no write of the effect inventory's
    ``clear`` shape — ``pop``/``del``/``clear``/an empty-value assignment
    (``None``, ``False``, an empty container), also through a local bound
    from the attribute — anywhere on the dispatcher's ``_finish_query``
    path.
``atomic-mutation``
    A function on a handler path that can ``raise`` between writes to two
    members of a declared ``STATE_INVARIANT_GROUPS`` couple, leaving
    recovery-visible partial state (the sanitizer's message-conservation
    and state-shape invariants assume these attributes move together).

Like everything on the call graph this is an under-approximation of
reachability: an unresolvable helper contributes no reads/writes, so a
clean report means "no gap *found*", never "provably complete".
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.callgraph import CallGraph, SymbolTable
from repro.analysis.effects import (
    EffectAnalysis,
    declared_tuples,
    effect_analysis_for,
    line_followers,
    short,
)
from repro.analysis.visitor import (
    ProjectContext,
    ProjectRule,
    Violation,
    register_project,
)

__all__ = [
    "CheckpointSpec",
    "StateLifecycleAnalysis",
    "state_inventory",
    "CheckpointGapRule",
    "RestoreAsymmetryRule",
    "FinishLeakRule",
    "AtomicMutationRule",
]

#: the module-level constant declaring atomicity couples; a tuple of
#: tuples of ``"ShortClass.attr"`` strings, scanned from every src module
INVARIANT_GROUPS_NAME = "STATE_INVARIANT_GROUPS"

#: classes whose attributes never enter the inventory: exception payloads
#: are diagnostics, not engine state
_EXCEPTION_CLASS_RE = re.compile(r"(?:Error|Exception)$")


@dataclass
class CheckpointSpec:
    """One discovered checkpoint class: capture/restore pair + runtime."""

    cls_qname: str
    runtime_cls: str
    capture_qname: str
    restore_qname: str
    #: runtime attributes transitively *read* by ``capture``
    captured: Set[str] = field(default_factory=set)
    #: runtime attributes transitively *written* by ``restore``
    restored: Set[str] = field(default_factory=set)
    #: runtime attr -> line of a ``restore`` assignment sourcing a
    #: checkpoint slot (``qr.x = f(self.y)``) — the "restored" direction
    #: of the symmetry check
    slot_restores: Dict[str, int] = field(default_factory=dict)


class StateLifecycleAnalysis:
    """State inventory + checkpoint/finish/invariant-group extraction."""

    def __init__(self, project: ProjectContext) -> None:
        self.project = project
        self.effects: EffectAnalysis = effect_analysis_for(project)
        self.table: SymbolTable = self.effects.table
        self.graph: CallGraph = self.effects.graph
        #: every handler-written ``ShortClass.attr`` (the inventory)
        self.inventory: Set[str] = self._build_inventory()
        #: checkpoint specs, keyed by checkpoint class qname
        self.specs: Dict[str, CheckpointSpec] = self._find_checkpoints()
        #: dispatcher class qname -> its ``_finish_query`` qname
        self.finish_methods: Dict[str, str] = {}
        for cls in self.effects.dispatch:
            finish = self.table.method(cls, "_finish_query")
            if finish is not None:
                self.finish_methods[cls] = finish
        #: declared invariant groups, in declaration order
        self.invariant_groups: List[Tuple[str, ...]] = [
            group
            for group in declared_tuples(self.table, INVARIANT_GROUPS_NAME)
            if len(group) >= 2
        ]

    # ------------------------------------------------------------------
    # manifest access
    # ------------------------------------------------------------------
    def _per_query(self, attr: str) -> bool:
        """Whether rules must treat the attribute as per-query state."""
        return self.effects.kind_of(attr) in ("per-query", "unclassified")

    def _classification_note(self, attr: str) -> str:
        if attr in self.project.state_manifest:
            return ""
        return " (not classified in state_manifest — treated as per-query)"

    # ------------------------------------------------------------------
    # inventory
    # ------------------------------------------------------------------
    def _build_inventory(self) -> Set[str]:
        inventory: Set[str] = set()
        for handlers in self.effects.handlers.values():
            for effects in handlers.values():
                inventory |= effects.hazardous_writes()
        return {
            attr
            for attr in inventory
            if not _EXCEPTION_CLASS_RE.search(attr.split(".")[0])
        }

    # ------------------------------------------------------------------
    # checkpoint specs
    # ------------------------------------------------------------------
    def _find_checkpoints(self) -> Dict[str, CheckpointSpec]:
        """Any class defining both ``capture`` and ``restore`` methods.

        The runtime class is the annotated type of ``capture``'s first
        non-``self``/``cls`` parameter; a capture without one (or with an
        unresolvable annotation) is skipped — the rules only reason about
        pairs whose state home they can actually see.
        """
        specs: Dict[str, CheckpointSpec] = {}
        for cls_qname, info in sorted(self.table.classes.items()):
            capture = info.methods.get("capture")
            restore = info.methods.get("restore")
            if capture is None or restore is None:
                continue
            runtime = self._runtime_param(capture)
            if runtime is None:
                continue
            spec = CheckpointSpec(
                cls_qname=cls_qname,
                runtime_cls=runtime,
                capture_qname=capture,
                restore_qname=restore,
            )
            owner = short(runtime) + "."
            spec.captured = {
                attr[len(owner):]
                for attr in self.effects.closure(capture).reads
                if attr.startswith(owner)
            }
            spec.restored = {
                attr[len(owner):]
                for attr in self.effects.closure(restore).writes
                if attr.startswith(owner)
            }
            self._extract_slot_restores(spec)
            specs[cls_qname] = spec
        return specs

    def _runtime_param(self, capture_qname: str) -> Optional[str]:
        fn = self.table.functions[capture_qname]
        args = fn.node.args
        named = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        for arg in named:
            if arg.arg in ("self", "cls"):
                continue
            resolved = self.table.resolve_annotation(fn.module, arg.annotation)
            if resolved is not None and resolved.cls in self.table.classes:
                return resolved.cls
        return None

    def _extract_slot_restores(self, spec: CheckpointSpec) -> None:
        """Direct ``restore`` assigns whose value flows from a checkpoint slot.

        ``qr.x = copy(self.y)`` restores runtime attr ``x`` *from the
        checkpoint* — if ``x`` was never captured, the slot it reads is
        stale garbage.  Resets that rebuild from the runtime itself
        (``qr.involved = set(qr.mailboxes)``) or from constants read no
        checkpoint slot and are deliberately not recorded.
        """
        fn = self.table.functions[spec.restore_qname]
        runtime_short = short(spec.runtime_cls)
        ck_short = short(spec.cls_qname)
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Assign):
                continue
            reads_slot = any(
                isinstance(sub, ast.Attribute)
                and isinstance(sub.ctx, ast.Load)
                and self._attr_owner(spec.restore_qname, sub) == ck_short
                for sub in ast.walk(node.value)
            )
            if not reads_slot:
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and self._attr_owner(spec.restore_qname, target)
                    == runtime_short
                ):
                    spec.slot_restores.setdefault(target.attr, target.lineno)

    def _attr_owner(self, fn_qname: str, node: ast.Attribute) -> Optional[str]:
        effect = self.effects._effect_name(fn_qname, node)
        return effect.partition(".")[0] if effect is not None else None

    # ------------------------------------------------------------------
    # atomic-mutation extraction
    # ------------------------------------------------------------------
    def group_write_sites(
        self, fn_qname: str, group: Tuple[str, ...]
    ) -> List[Tuple[str, int]]:
        """(attr, line) writes of group members attributable to ``fn``.

        Direct attribute stores count at their own line; a call whose
        *transitive* writes intersect the group counts at the call line —
        a helper that re-homes mailboxes is one atomic step from the
        caller's perspective, but its call site still orders against the
        caller's raises.
        """
        members = set(group)
        sites: List[Tuple[str, int]] = []
        direct = self.effects._direct.get(fn_qname)
        if direct is not None:
            sites.extend(
                (attr, line)
                for attr, line in direct.write_sites
                if attr in members
            )
        for callee, call_node in self.graph.sites.get(fn_qname, ()):
            if callee == fn_qname:
                continue
            written = self.effects.closure(callee).writes
            for attr in sorted(members.intersection(written)):
                sites.append((attr, call_node.lineno))
        return sites

    @staticmethod
    def raise_lines(fn_node: ast.AST) -> Set[int]:
        """Lines of ``raise`` statements directly inside the function."""
        lines: Set[int] = set()
        nested: Set[int] = set()
        for node in ast.walk(fn_node):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node is not fn_node
            ):
                nested |= {
                    getattr(sub, "lineno", -1) for sub in ast.walk(node)
                }
        for node in ast.walk(fn_node):
            if isinstance(node, ast.Raise) and node.lineno not in nested:
                lines.add(node.lineno)
        return lines


def _analysis_for(project: ProjectContext) -> StateLifecycleAnalysis:
    return project.memo("lifecycle", StateLifecycleAnalysis)


def state_inventory(project: ProjectContext) -> List[str]:
    """Sorted handler-written attribute inventory (for ``--write-baseline``)."""
    return sorted(_analysis_for(project).inventory)


@register_project
class CheckpointGapRule(ProjectRule):
    name = "checkpoint-gap"
    description = (
        "a per-query attribute of a checkpoint's runtime class that "
        "capture never reads — lost across crash recovery"
    )
    roles = ("src",)

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        analysis = _analysis_for(project)
        for cls_qname in sorted(analysis.specs):
            spec = analysis.specs[cls_qname]
            runtime_short = short(spec.runtime_cls)
            ctx, node = analysis.effects.fn_anchor(spec.capture_qname)
            for attr in sorted(analysis.inventory):
                cls, _, name = attr.partition(".")
                if cls != runtime_short or name in spec.captured:
                    continue
                if not analysis._per_query(attr):
                    continue
                yield self.violation(
                    ctx,
                    node,
                    f"{short(cls_qname)}.capture never reads {attr}, but "
                    "event handlers write it — the field is lost across "
                    "crash recovery; capture it or classify it as derived/"
                    "engine-global in the state_manifest"
                    + analysis._classification_note(attr),
                    fingerprint=f"checkpoint-gap::{short(cls_qname)}::{attr}",
                )


@register_project
class RestoreAsymmetryRule(ProjectRule):
    name = "restore-asymmetry"
    description = (
        "a checkpoint attribute captured but never restored, or restored "
        "from a slot that capture never fills"
    )
    roles = ("src",)

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        analysis = _analysis_for(project)
        for cls_qname in sorted(analysis.specs):
            spec = analysis.specs[cls_qname]
            runtime_short = short(spec.runtime_cls)
            ck_short = short(cls_qname)
            ctx, node = analysis.effects.fn_anchor(spec.restore_qname)
            for name in sorted(spec.captured - spec.restored):
                yield self.violation(
                    ctx,
                    node,
                    f"{ck_short}.capture reads {runtime_short}.{name} but "
                    f"restore never writes it back — the captured value is "
                    "dead weight and recovery resumes with post-crash state",
                    fingerprint=(
                        f"restore-asymmetry::{ck_short}::captured::{name}"
                    ),
                )
            for name, line in sorted(spec.slot_restores.items()):
                if name in spec.captured:
                    continue
                yield Violation(
                    rule=self.name,
                    path=ctx.path,
                    line=line,
                    col=0,
                    message=(
                        f"{ck_short}.restore assigns {runtime_short}.{name} "
                        "from a checkpoint slot that capture never fills — "
                        "recovery would install stale or default data"
                    ),
                    fingerprint=(
                        f"restore-asymmetry::{ck_short}::restored::{name}"
                    ),
                )


@register_project
class FinishLeakRule(ProjectRule):
    name = "finish-leak"
    description = (
        "a per-query attribute outside the runtime class with no clearing "
        "write on the _finish_query path — state leaks across queries"
    )
    roles = ("src",)

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        analysis = _analysis_for(project)
        runtime_shorts = {
            short(spec.runtime_cls) for spec in analysis.specs.values()
        }
        for cls_qname in sorted(analysis.finish_methods):
            finish = analysis.finish_methods[cls_qname]
            # only clearing shapes count: the finish closure reaches
            # ``_admit_pending`` -> ``_start_query`` (finishing one query
            # admits the next), whose additive writes would otherwise mark
            # every attribute released the moment the next query starts
            writes = analysis.effects.closure(finish).writes
            cleared = {a for a, shapes in writes.items() if "clear" in shapes}
            ctx, node = analysis.effects.fn_anchor(finish)
            for attr in sorted(analysis.inventory):
                cls, _, _name = attr.partition(".")
                if cls in runtime_shorts or attr in cleared:
                    continue
                if not analysis._per_query(attr):
                    continue
                yield self.violation(
                    ctx,
                    node,
                    f"per-query state {attr} is written by event handlers "
                    f"but never released (pop/del/clear) on the "
                    f"{short(cls_qname)}._finish_query path — it leaks "
                    "across queries; release it or classify it as "
                    "engine-global in the state_manifest with a reason"
                    + analysis._classification_note(attr),
                    fingerprint=f"finish-leak::{short(cls_qname)}::{attr}",
                )


@register_project
class AtomicMutationRule(ProjectRule):
    name = "atomic-mutation"
    description = (
        "a handler-path function can raise between writes to one declared "
        "STATE_INVARIANT_GROUPS couple, leaving partial state"
    )
    roles = ("src",)

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        analysis = _analysis_for(project)
        if not analysis.invariant_groups:
            return
        reached = analysis.effects.handler_reachable()
        seen: Set[str] = set()
        for fn_qname in sorted(reached):
            fn = analysis.table.functions.get(fn_qname)
            if fn is None or fn.ctx.role != "src":
                continue
            raises = analysis.raise_lines(fn.node)
            if not raises:
                continue
            followers: Optional[Dict[int, Set[int]]] = None
            for group in analysis.invariant_groups:
                sites = analysis.group_write_sites(fn_qname, group)
                written_attrs = {attr for attr, _ in sites}
                if len(written_attrs) < 2:
                    continue
                if followers is None:
                    followers = line_followers(fn.node)
                finding = self._torn_write(sites, raises, followers)
                if finding is None:
                    continue
                attr_a, attr_b, raise_line = finding
                first, second = sorted((attr_a, attr_b))
                fingerprint = (
                    f"atomic-mutation::{fn_qname}::{first}::{second}"
                )
                if fingerprint in seen:
                    continue
                seen.add(fingerprint)
                kinds = ", ".join(sorted(reached[fn_qname]))
                yield self.violation(
                    fn.ctx,
                    fn.node,
                    f"{fn.name} (reached from handler(s): {kinds}) can "
                    f"raise at line {raise_line} after writing {attr_a} "
                    f"but before writing {attr_b} — a torn update of the "
                    "declared invariant group "
                    f"({', '.join(group)}); hoist the raise above the "
                    "first write or make the group update atomic",
                    fingerprint=fingerprint,
                )

    @staticmethod
    def _torn_write(
        sites: List[Tuple[str, int]],
        raises: Set[int],
        followers: Dict[int, Set[int]],
    ) -> Optional[Tuple[str, str, int]]:
        """A (written attr, later attr, raise line) tear, if one exists."""
        for attr_a, line_a in sorted(sites, key=lambda s: s[1]):
            after_a = followers.get(line_a, set())
            live_raises = sorted(raises & after_a)
            if not live_raises:
                continue
            for attr_b, line_b in sites:
                if attr_b == attr_a or line_b not in after_a:
                    continue
                for raise_line in live_raises:
                    if line_b > raise_line:
                        return (attr_a, attr_b, raise_line)
        return None
