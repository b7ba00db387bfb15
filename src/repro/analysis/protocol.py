"""Protocol-liveness analysis: barrier automata over the event handlers.

Q-graph's coordination protocols — the STOP/START repartition barrier
(stages A/B/C), recovery stage R, the SHARED_BSP superstep release and
the heartbeat/retry control plane — are all implemented as flag/counter
mutations spread across the engine's ``_on_*`` event handlers.  Every
protocol bug fixed so far (stale acks in PR 1, stranded barriers in
PR 4, mid-BSP STOP in PR 6, the PR 8 epoch-bump hoist) was a *liveness*
or *generation-fencing* hole in exactly that mutation web.  This module
makes the web explicit: it extracts, per dispatcher class, a **protocol
automaton** whose

states
    are the dispatcher's phase flags, epoch counters and parked-work
    buffers (``paused``, ``_superstep_outstanding``, ``_held_tasks``,
    ``barrier_epoch``, … — the waiting-shaped subset of PR 9's
    ``state_manifest`` inventory, each summarized with its manifest
    classification), plus the members of every declared barrier-ack
    couple (see :data:`BARRIER_PROTOCOLS_NAME`);
transitions
    are handler executions, annotated with the protocol states each
    handler (transitively) *enters* (parks a task, seeds a counter, sets
    a stop flag) or *releases* (clears, decrements, resets), the
    fence-shaped guards dominating its effects, and the event kinds it
    schedules — the automaton's edges to other transitions.

The extracted automata are persisted in the ``protocol`` section of
``analysis_baseline.json`` (``--write-baseline`` regenerates,
``--drift`` reports drift) and rendered as markdown tables for
``docs/engine.md`` via ``--protocol-tables``.  Four project rules prove
the protocols over the automata:

``barrier-liveness``
    Every waiting state some handler enters has a release transition in
    a handler that is actually schedulable — no terminal waiting state.
    A parked task buffer nobody clears, a stop flag nothing resets, an
    ack counter with no decrement path all strand the simulation at the
    barrier (the PR 4 bug class, generalized).
``ack-completeness``
    Every declared ack/participant/epoch couple stays generation-
    consistent: re-seeding the participant set resets the ack set,
    re-seeding the ack set bumps the epoch (else in-flight acks from the
    previous generation count toward the new barrier — the PR 1 stale-
    ack bug), bumping the epoch adjusts the ack set, and the accepting
    handler compares the message's epoch against the live one.
``epoch-fence``
    Every handler consuming a schedulable message with non-fence effects
    guards them behind an epoch/phase comparison — a message produced
    before a STOP/recovery boundary can be consumed after it, and an
    unfenced handler applies stale work (the PR 8 stale-dispatch bug
    class).
``event-kind-closure``
    Every kind passed to ``schedule`` is a key of some dispatcher's
    declared handler table, and every table entry is reachable from at
    least one schedule site — a typo'd kind raises only when it fires,
    and an unscheduled handler is dead protocol surface.

Like everything built on the call graph this under-approximates
reachability (an unresolvable helper contributes no effects), so a clean
report means "no hole *found*", never "protocol proven live".
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Set, Tuple

from repro.analysis.callgraph import CallGraph, SymbolTable
from repro.analysis.effects import (
    GUARD_ATTR_RE,
    EffectAnalysis,
    HandlerEffects,
    declared_tuples,
    effect_analysis_for,
    short,
)
from repro.analysis.visitor import (
    ProjectContext,
    ProjectRule,
    Violation,
    register_project,
)

__all__ = [
    "BARRIER_PROTOCOLS_NAME",
    "WAITING_ATTR_RE",
    "ProtocolTransition",
    "ProtocolAutomaton",
    "ProtocolAnalysis",
    "protocol_summary",
    "render_protocol_tables",
    "BarrierLivenessRule",
    "AckCompletenessRule",
    "EpochFenceRule",
    "EventKindClosureRule",
]

#: the module-level constant declaring barrier-ack couples; a tuple of
#: ``("Cls.ack_set", "Cls.participant_set", "Cls.epoch")`` triples,
#: scanned from every src module (same discovery discipline as
#: ``STATE_INVARIANT_GROUPS``) — the declaration documents the protocol,
#: the ``ack-completeness`` rule proves the code against it
BARRIER_PROTOCOLS_NAME = "BARRIER_ACK_PROTOCOLS"

#: attribute-name shapes that denote a *waiting* protocol state: parked/
#: held work buffers, pending/outstanding counters, stop/pause/recovery
#: mode flags, crash bookkeeping.  Deliberately excludes epoch/generation
#: counters (monotonic by design — they never "release") and ack sets
#: (owned by the declared barrier couples instead).
WAITING_ATTR_RE = re.compile(
    r"held|park|wait|defer|pending|outstanding|paus|stop|halt|recover"
    r"|restor|taint|dead|down|crash|undetect|in_progress|inflight"
    r"|in_flight|quiesc|particip"
)

#: waiting-shaped names that are pure chronometry or statistics, not
#: protocol states (``_stop_begin_time`` records *when* the stop began,
#: not *that* one is pending)
_NON_WAITING_RE = re.compile(r"time|stamp|clock|count|total|history|stat")


@dataclass
class ProtocolTransition:
    """One automaton transition: a handler execution, summarized."""

    kind: str
    qname: str
    #: protocol states this handler (transitively) enters / releases
    enters: List[str] = field(default_factory=list)
    releases: List[str] = field(default_factory=list)
    #: fence-shaped guard attributes dominating the handler's effects
    guards: List[str] = field(default_factory=list)
    #: event kinds this handler (transitively) schedules — automaton edges
    schedules: List[str] = field(default_factory=list)
    guarded: bool = False

    def summary(self) -> Dict[str, object]:
        """JSON-stable form for the baseline's ``protocol`` section."""
        return {
            "enters": list(self.enters),
            "releases": list(self.releases),
            "guards": list(self.guards),
            "schedules": list(self.schedules),
            "guarded": self.guarded,
        }


@dataclass
class ProtocolAutomaton:
    """One dispatcher's protocol state machine."""

    dispatcher: str
    #: protocol state -> manifest kind (per-query/engine-global/derived/
    #: unclassified) — the PR 9 classification, carried into the summary
    states: Dict[str, str] = field(default_factory=dict)
    #: declared barrier-ack couples whose classes this dispatcher touches
    couples: List[Tuple[str, str, str]] = field(default_factory=list)
    #: event kind -> transition
    transitions: Dict[str, ProtocolTransition] = field(default_factory=dict)

    def summary(self) -> Dict[str, object]:
        return {
            "states": dict(sorted(self.states.items())),
            "couples": [list(c) for c in sorted(self.couples)],
            "transitions": {
                kind: t.summary()
                for kind, t in sorted(self.transitions.items())
            },
        }


class ProtocolAnalysis:
    """Automaton extraction over the shared effect analysis."""

    def __init__(self, project: ProjectContext) -> None:
        self.effects: EffectAnalysis = effect_analysis_for(project)
        self.table: SymbolTable = self.effects.table
        self.graph: CallGraph = self.effects.graph
        #: declared ack/participant/epoch couples, in declaration order
        self.couples: List[Tuple[str, str, str]] = [
            (c[0], c[1], c[2])
            for c in declared_tuples(self.table, BARRIER_PROTOCOLS_NAME)
            if len(c) == 3
        ]
        #: fn qname -> event kinds whose handlers (transitively) reach it
        self.on_handler_path: Dict[str, Set[str]] = (
            self.effects.handler_reachable()
        )
        #: dispatcher class qname -> extracted automaton
        self.automata: Dict[str, ProtocolAutomaton] = {
            cls: self._extract_automaton(cls)
            for cls in sorted(self.effects.dispatch)
        }

    # ------------------------------------------------------------------
    # automaton extraction
    # ------------------------------------------------------------------
    def _protocol_classes(self, cls_qname: str) -> Set[str]:
        """Short class names whose attrs may be this dispatcher's states.

        The dispatcher itself, plus the owner class of every declared
        barrier couple the dispatcher's handlers actually write — the
        per-query runtime objects the barrier protocol manipulates.
        """
        classes = {short(cls_qname)}
        written: Set[str] = set()
        for he in self.effects.handlers.get(cls_qname, {}).values():
            written |= he.writes
        for ack, _participants, _epoch in self.couples:
            if any(attr in written for attr in (ack, _participants, _epoch)):
                classes.add(ack.split(".")[0])
        return classes

    def _extract_automaton(self, cls_qname: str) -> ProtocolAutomaton:
        handlers = self.effects.handlers[cls_qname]
        classes = self._protocol_classes(cls_qname)
        written: Set[str] = set()
        for he in handlers.values():
            written |= he.hazardous_writes()
        states: Dict[str, str] = {}
        for attr in written:
            owner, _, name = attr.partition(".")
            if owner not in classes:
                continue
            if WAITING_ATTR_RE.search(name) and not _NON_WAITING_RE.search(
                name
            ):
                states[attr] = self.effects.kind_of(attr)
        couples = [
            c
            for c in self.couples
            if c[0].split(".")[0] in classes or any(m in written for m in c)
        ]
        for couple in couples:
            for member in couple:
                states.setdefault(member, self.effects.kind_of(member))
        auto = ProtocolAutomaton(
            dispatcher=short(cls_qname), states=states, couples=couples
        )
        for kind in sorted(handlers):
            he = handlers[kind]
            shapes = self.effects.closure(he.qname).writes
            enters = sorted(
                a for a, tags in shapes.items() if a in states and "enter" in tags
            )
            releases = sorted(
                a
                for a, tags in shapes.items()
                if a in states and tags & {"clear", "decrement"}
            )
            guards = sorted(
                g
                for g in he.guards
                if GUARD_ATTR_RE.search(g.split(".")[-1])
            )
            schedules = sorted(
                {k for k, _delay, _line, _f in he.schedules if k is not None}
            )
            auto.transitions[kind] = ProtocolTransition(
                kind=kind,
                qname=he.qname,
                enters=enters,
                releases=releases,
                guards=guards,
                schedules=schedules,
                guarded=he.is_guarded(),
            )
        return auto

    # ------------------------------------------------------------------
    # baseline / docs rendering
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """Deterministic whole-project summary for the checked-in baseline."""
        return {
            short(cls): auto.summary()
            for cls, auto in sorted(self.automata.items())
        }

    def render_tables(self) -> str:
        """Markdown automaton tables for ``docs/engine.md``."""
        lines: List[str] = []
        for cls in sorted(self.automata):
            auto = self.automata[cls]
            lines.append(f"#### `{auto.dispatcher}` protocol automaton")
            lines.append("")
            if auto.states:
                lines.append(
                    "States (waiting flags/buffers and barrier-couple "
                    "members, with their `state_manifest` classification):"
                )
                lines.append("")
                for attr in sorted(auto.states):
                    lines.append(f"- `{attr}` — {auto.states[attr]}")
                lines.append("")
            for couple in auto.couples:
                ack, participants, epoch = couple
                lines.append(
                    f"Barrier-ack couple: acks `{ack}` counted against "
                    f"`{participants}`, fenced by `{epoch}`."
                )
                lines.append("")
            lines.append(
                "| event | guards | enters | releases | schedules |"
            )
            lines.append("| --- | --- | --- | --- | --- |")
            for kind in sorted(auto.transitions):
                t = auto.transitions[kind]

                def cell(items: List[str]) -> str:
                    return (
                        "<br>".join(f"`{i}`" for i in items) if items else "—"
                    )

                lines.append(
                    f"| `{kind}` | {cell(t.guards)} | {cell(t.enters)} "
                    f"| {cell(t.releases)} | {cell(t.schedules)} |"
                )
            lines.append("")
        return "\n".join(lines).rstrip() + "\n"


def _analysis_for(project: ProjectContext) -> ProtocolAnalysis:
    return project.memo("protocol", ProtocolAnalysis)


def protocol_summary(project: ProjectContext) -> Dict[str, object]:
    """The extracted automata, JSON-stable (for ``--write-baseline``)."""
    return _analysis_for(project).summary()


def render_protocol_tables(project: ProjectContext) -> str:
    """Markdown automaton tables (for ``--protocol-tables`` and docs)."""
    return _analysis_for(project).render_tables()


@register_project
class BarrierLivenessRule(ProjectRule):
    name = "barrier-liveness"
    description = (
        "a handler enters a waiting state (parks work, seeds a counter, "
        "sets a stop flag) that no schedulable handler ever releases"
    )
    roles = ("src",)

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        analysis = _analysis_for(project)
        scheduled = analysis.effects.schedule_sites
        for cls in sorted(analysis.automata):
            auto = analysis.automata[cls]
            # generation counters are monotonic by design — bumping one is
            # not a wait, so they have no release transition to demand
            epochs = {couple[2] for couple in auto.couples}
            names = {k: short(t.qname) for k, t in auto.transitions.items()}
            for attr in sorted(auto.states):
                if attr in epochs:
                    continue
                enter_kinds = sorted(
                    k
                    for k, t in auto.transitions.items()
                    if attr in t.enters
                )
                if not enter_kinds:
                    continue
                release_kinds = sorted(
                    k
                    for k, t in auto.transitions.items()
                    if attr in t.releases
                )
                live = [k for k in release_kinds if k in scheduled]
                if live:
                    continue
                if release_kinds:
                    detail = (
                        "its only release transitions "
                        f"({', '.join(names[k] for k in release_kinds)}) "
                        "are handlers no schedule site ever produces"
                    )
                else:
                    detail = "no handler ever releases it"
                anchor = auto.transitions[enter_kinds[0]]
                ctx, node = analysis.effects.fn_anchor(anchor.qname)
                yield self.violation(
                    ctx,
                    node,
                    f"waiting state {attr} is entered by handler(s) "
                    f"{', '.join(names[k] for k in enter_kinds)} but "
                    f"{detail} — a terminal waiting state strands the "
                    "protocol at the barrier; add a release path or drop "
                    "the parked state",
                    fingerprint=(
                        f"barrier-liveness::{auto.dispatcher}::{attr}"
                    ),
                )


@register_project
class AckCompletenessRule(ProjectRule):
    name = "ack-completeness"
    description = (
        "a declared barrier-ack couple re-seeded or epoch-bumped "
        "inconsistently — acks from one generation count toward another"
    )
    roles = ("src",)

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        analysis = _analysis_for(project)
        for couple in analysis.couples:
            ack, participants, epoch = couple
            yield from self._check_couple(analysis, ack, participants, epoch)

    def _check_couple(
        self,
        analysis: ProtocolAnalysis,
        ack: str,
        participants: str,
        epoch: str,
    ) -> Iterator[Violation]:
        closure = analysis.effects.closure
        for fn_qname in sorted(analysis.on_handler_path):
            fn = analysis.table.functions.get(fn_qname)
            if fn is None or fn.ctx.role != "src":
                continue
            direct = analysis.effects._direct[fn_qname]
            ctx, node = analysis.effects.fn_anchor(fn_qname)
            if (
                participants in direct.writes
                and ack not in closure(fn_qname).writes
            ):
                yield self.violation(
                    ctx,
                    node,
                    f"{fn.name} re-seeds the participant set {participants} "
                    f"without resetting the ack set {ack} — acks counted "
                    "for the previous membership complete a barrier the new "
                    "membership never joined",
                    fingerprint=f"ack-completeness::seed::{fn_qname}::{participants}",
                )
            if (
                "reset" in direct.writes.get(ack, ())
                and epoch not in closure(fn_qname).writes
            ):
                yield self.violation(
                    ctx,
                    node,
                    f"{fn.name} re-seeds the ack set {ack} without bumping "
                    f"{epoch} — in-flight acks stamped with the previous "
                    "generation still pass the epoch fence and count toward "
                    "the new barrier (the stale-ack bug class)",
                    fingerprint=f"ack-completeness::reseed::{fn_qname}::{ack}",
                )
            if (
                epoch in direct.writes
                and ack not in closure(fn_qname).writes
            ):
                yield self.violation(
                    ctx,
                    node,
                    f"{fn.name} bumps {epoch} without adjusting the ack set "
                    f"{ack} — acks already counted under the old generation "
                    "survive into the new one",
                    fingerprint=f"ack-completeness::bump::{fn_qname}::{epoch}",
                )
        yield from self._check_accepts(analysis, ack, epoch)

    def _check_accepts(
        self, analysis: ProtocolAnalysis, ack: str, epoch: str
    ) -> Iterator[Violation]:
        """Epoch-stamped accept sites must guard on the live epoch."""
        epoch_attr = epoch.split(".")[-1]
        for cls in sorted(analysis.effects.handlers):
            handlers = analysis.effects.handlers[cls]
            for kind in sorted(handlers):
                he = handlers[kind]
                if not self._accepts_with_epoch_param(
                    analysis, he, ack, epoch_attr
                ):
                    continue
                if epoch in he.guards:
                    continue
                ctx, node = analysis.effects.fn_anchor(he.qname)
                yield self.violation(
                    ctx,
                    node,
                    f"{short(he.qname)} counts acks into {ack} and carries an "
                    f"epoch-shaped payload parameter, but never compares it "
                    f"against {epoch} — a stale ack from a previous barrier "
                    "generation is accepted as current",
                    fingerprint=(
                        f"ack-completeness::accept::{short(cls)}::{kind}"
                    ),
                )

    @staticmethod
    def _accepts_with_epoch_param(
        analysis: ProtocolAnalysis,
        he: HandlerEffects,
        ack: str,
        epoch_attr: str,
    ) -> bool:
        """The handler closure adds to ``ack`` inside a function whose
        signature carries an epoch-shaped parameter (the message payload)."""
        for callee in analysis.graph.transitive(he.qname):
            fn = analysis.table.functions.get(callee)
            if fn is None:
                continue
            if "enter" not in analysis.effects._direct[callee].writes.get(ack, ()):
                continue
            args = fn.node.args
            named = (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            )
            for arg in named:
                if arg.arg == epoch_attr or epoch_attr.endswith(
                    "_" + arg.arg
                ):
                    return True
        return False


@register_project
class EpochFenceRule(ProjectRule):
    name = "epoch-fence"
    description = (
        "a handler consuming a schedulable message applies non-fence "
        "effects without any epoch/phase guard — stale work after a "
        "STOP/recovery boundary"
    )
    roles = ("src",)

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        analysis = _analysis_for(project)
        for cls in sorted(analysis.automata):
            auto = analysis.automata[cls]
            # a dispatcher with no boundary flags has no boundary for a
            # message to straddle — nothing to fence against
            boundary = any(
                GUARD_ATTR_RE.search(attr.split(".")[-1])
                for t in auto.transitions.values()
                for attr in (*t.enters, *t.releases)
            )
            if not boundary:
                continue
            handlers = analysis.effects.handlers[
                next(
                    c
                    for c in analysis.effects.handlers
                    if short(c) == auto.dispatcher
                )
            ]
            for kind in sorted(handlers):
                he = handlers[kind]
                if kind not in analysis.effects.schedule_sites:
                    continue  # event-kind-closure owns unreachable handlers
                exposed = sorted(
                    attr
                    for attr in he.hazardous_writes()
                    if not GUARD_ATTR_RE.search(attr.split(".")[-1])
                )
                if not exposed:
                    continue
                if he.is_guarded():
                    continue
                ctx, node = analysis.effects.fn_anchor(he.qname)
                shown = ", ".join(exposed[:4]) + (
                    "…" if len(exposed) > 4 else ""
                )
                yield self.violation(
                    ctx,
                    node,
                    f"{short(he.qname)} consumes a schedulable message and writes "
                    f"{shown} with no epoch/phase guard anywhere on its "
                    "path — a message produced before a STOP/recovery "
                    "boundary is applied unfenced after it (the "
                    "stale-dispatch bug class); compare the payload's "
                    "epoch or check a phase flag before the effects",
                    fingerprint=(
                        f"epoch-fence::{auto.dispatcher}::{kind}"
                    ),
                )


@register_project
class EventKindClosureRule(ProjectRule):
    name = "event-kind-closure"
    description = (
        "a scheduled event kind missing from every handler table or a "
        "table entry no schedule site ever produces (dead protocol surface)"
    )
    roles = ("src",)

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        analysis = _analysis_for(project)
        if not analysis.effects.dispatch:
            return
        handled = {k for kinds in analysis.effects.dispatch.values() for k in kinds}
        sites = analysis.effects.schedule_sites
        for kind in sorted(sites):
            if kind in handled:
                continue
            producer, line, _delay = min(sites[kind])
            ctx, _node = analysis.effects.fn_anchor(producer)
            yield Violation(
                rule=self.name,
                path=ctx.path,
                line=line,
                col=0,
                message=(
                    f"{producer} schedules event kind '{kind}' but no "
                    "dispatcher's handler table declares it — the run "
                    "raises when it fires (typo'd or dead kind)"
                ),
                fingerprint=f"event-kind-closure::kind::{kind}",
            )
        for cls in sorted(analysis.effects.dispatch):
            for kind in sorted(analysis.effects.dispatch[cls]):
                if kind in sites:
                    continue
                he = analysis.effects.handlers[cls][kind]
                ctx, node = analysis.effects.fn_anchor(he.qname)
                yield self.violation(
                    ctx,
                    node,
                    f"handler {short(he.qname)} ('{kind}' in {short(cls)}'s "
                    "table) is reachable from no schedule site — dead "
                    "protocol surface (or its producer passes a non-literal "
                    "kind the analysis cannot see; schedule with a literal "
                    "kind)",
                    fingerprint=(
                        f"event-kind-closure::handler::{short(cls)}::{kind}"
                    ),
                )
