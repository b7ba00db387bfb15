"""Virtual-time race detection over the engine's event handlers.

The simulation is only deterministic because :class:`EventQueue` breaks
same-timestamp ties by schedule order — so any two handlers that *can* be
co-scheduled at one virtual timestamp with overlapping write sets are
ordered by an accident of who scheduled first, not by the protocol.  Every
cross-handler bug the sanitizer has caught at run time (a STOP firing
mid-BSP-superstep, a stale pre-STOP barrier ack mutating barrier state)
was exactly this shape.  These rules flag the shape at lint time:

``virtual-time-race``
    A handler pair that (a) may pop at the same timestamp (see
    :meth:`EffectAnalysis.may_tie`), (b) transitively writes at least one
    common non-benign attribute, and (c) where **neither** handler fences
    itself with an epoch/phase guard (a conditional reading a
    fence-shaped attribute — ``barrier_epoch``, ``paused``,
    ``_dead_workers``, …).  One guarded side is accepted as protocol
    ordering: the established engine idiom is that the *later* handler
    checks the fence and drops stale work.
``effect-after-schedule``
    A handler that schedules an event and *then* mutates state the
    scheduled handler reads — the event sees post-mutation state only
    because handlers run to completion; hoisting the mutation above the
    schedule keeps the dependency explicit and refactor-safe.

Both analyses are under-approximations of reachability and
over-approximations of interleaving; accepted hazards live either in a
suppression comment on the handler's ``def`` line or in the checked-in
effect baseline (see :mod:`repro.analysis.baseline`).
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterator

from repro.analysis.effects import (
    BENIGN_CLASSES,
    HandlerEffects,
    effect_analysis_for,
    short,
)
from repro.analysis.visitor import (
    ProjectContext,
    ProjectRule,
    Violation,
    register_project,
)

__all__ = ["VirtualTimeRaceRule", "EffectAfterScheduleRule"]


@register_project
class VirtualTimeRaceRule(ProjectRule):
    name = "virtual-time-race"
    description = (
        "two event handlers can be co-scheduled at one virtual timestamp "
        "with overlapping write sets and no epoch/phase guard"
    )
    roles = ("src",)

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        analysis = effect_analysis_for(project)
        for cls in sorted(analysis.handlers):
            handlers = analysis.handlers[cls]
            for kind_a, kind_b in combinations(sorted(handlers), 2):
                ha, hb = handlers[kind_a], handlers[kind_b]
                if not analysis.may_tie(kind_a, kind_b):
                    continue
                overlap = sorted(ha.hazardous_writes() & hb.hazardous_writes())
                if not overlap:
                    continue
                if ha.is_guarded() or hb.is_guarded():
                    continue
                first, second = sorted((ha, hb), key=lambda h: h.qname)
                ctx, node = analysis.fn_anchor(first.qname)
                shown = ", ".join(overlap[:4]) + ("…" if len(overlap) > 4 else "")
                yield self.violation(
                    ctx,
                    node,
                    f"handlers {short(ha.qname)} and {short(hb.qname)} can run "
                    f"at the same virtual timestamp and both write {shown} with no "
                    "epoch/phase guard on either side — their order is an "
                    "accident of schedule order; fence one on the barrier "
                    "epoch (or prove they cannot tie)",
                    fingerprint=(
                        f"virtual-time-race::{first.qname}~{second.qname}"
                    ),
                )


@register_project
class EffectAfterScheduleRule(ProjectRule):
    name = "effect-after-schedule"
    description = (
        "a handler mutates state after scheduling an event whose handler "
        "reads that state"
    )
    roles = ("src",)

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        analysis = effect_analysis_for(project)
        for cls in sorted(analysis.handlers):
            handlers = analysis.handlers[cls]
            by_kind: Dict[str, HandlerEffects] = handlers
            for kind in sorted(handlers):
                effects = handlers[kind]
                reported: set = set()
                for sched_kind, _delay, sched_line, followers in effects.direct.schedules:
                    if sched_kind is None or sched_kind not in by_kind:
                        continue
                    target = by_kind[sched_kind]
                    for attr, write_line in effects.direct.write_sites:
                        if write_line not in followers:
                            continue
                        if attr not in target.reads:
                            continue
                        if attr.split(".")[0] in BENIGN_CLASSES:
                            continue
                        key = (sched_kind, attr)
                        if key in reported:
                            continue
                        reported.add(key)
                        ctx, node = analysis.fn_anchor(effects.qname)
                        yield Violation(
                            rule=self.name,
                            path=ctx.path,
                            line=write_line,
                            col=getattr(node, "col_offset", 0),
                            message=(
                                f"{short(effects.qname)} mutates {attr} at line "
                                f"{write_line} after scheduling "
                                f"'{sched_kind}' (line {sched_line}), whose "
                                f"handler {short(target.qname)} reads {attr} — "
                                "hoist the mutation above the schedule so "
                                "the scheduled event's input state is "
                                "explicit"
                            ),
                            fingerprint=(
                                f"effect-after-schedule::{effects.qname}"
                                f"::{sched_kind}::{attr}"
                            ),
                        )
