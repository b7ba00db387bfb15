"""Checked-in effect-summary baseline for the whole-program analyses.

``analysis_baseline.json`` (repo root) pins three things:

``effects``
    The :meth:`EffectAnalysis.effect_summary` of every event handler —
    the transitive read/write/guard sets and schedule points the race
    rules reason over.  CI uploads this file's diff against the pull
    request's base commit as a review artifact, so an engine change that
    silently widens a handler's write set is visible in the PR even when
    no rule fires.
``state_manifest``
    The state-lifecycle inventory (see :mod:`repro.analysis.lifecycle`):
    every handler-written ``Class.attr``, classified ``per-query`` /
    ``engine-global`` / ``derived`` with a mandatory reason.
    ``--write-baseline`` keeps the hand-written classifications for
    attributes still in the inventory, drops rotted entries, and emits
    new attributes as ``unclassified`` with an empty reason — the
    lifecycle rules then treat them as per-query (the conservative
    default) until a human classifies them.
``protocol``
    The extracted protocol automata (see
    :mod:`repro.analysis.protocol`): per dispatcher, the waiting states
    with their manifest classification, the declared barrier-ack
    couples, and per-handler transitions (enters/releases/guards/
    schedules).  Fully generated — ``--drift`` reports its drift.

Regenerate with ``python -m repro.analysis --write-baseline`` after an
intentional engine change.  The baseline-stability
test asserts the checked-in file matches a fresh regeneration, so a
stale baseline — or a stale ``state_manifest`` — fails tier-1 rather
than rotting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.analysis.effects import MANIFEST_KINDS, effect_analysis_for
from repro.analysis.lifecycle import state_inventory
from repro.analysis.protocol import protocol_summary
from repro.analysis.visitor import ProjectContext

__all__ = [
    "BASELINE_NAME",
    "Baseline",
    "load_baseline",
    "find_baseline",
    "render_baseline",
    "render_manifest",
    "diff_effects",
    "diff_manifest",
    "diff_protocol",
]

BASELINE_NAME = "analysis_baseline.json"
_VERSION = 1


@dataclass
class Baseline:
    """Parsed ``analysis_baseline.json``."""

    version: int = _VERSION
    #: dispatcher class -> {event kind -> handler summary}
    effects: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: ``"Cls.attr" -> {"kind": ..., "reason": ...}`` state classifications
    state_manifest: Dict[str, Dict[str, str]] = field(default_factory=dict)
    #: dispatcher class -> extracted protocol automaton summary
    protocol: Dict[str, object] = field(default_factory=dict)


def _validate_manifest(path: Path, manifest: object) -> Dict[str, Dict[str, str]]:
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: state_manifest must be an object")
    out: Dict[str, Dict[str, str]] = {}
    for attr, entry in manifest.items():
        if not isinstance(entry, dict) or entry.get("kind") not in MANIFEST_KINDS:
            raise ValueError(
                f"{path}: state_manifest[{attr!r}] needs a kind in "
                f"{MANIFEST_KINDS}"
            )
        kind = str(entry["kind"])
        reason = str(entry.get("reason", ""))
        # classification without justification is just a silenced finding;
        # only the generated "unclassified" placeholder may lack one
        if kind != "unclassified" and not reason.strip():
            raise ValueError(
                f"{path}: state_manifest[{attr!r}] is {kind!r} without a reason"
            )
        out[str(attr)] = {"kind": kind, "reason": reason}
    return out


def load_baseline(path: Path) -> Baseline:
    raw = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(raw, dict) or raw.get("version") != _VERSION:
        raise ValueError(
            f"{path}: unsupported baseline format "
            f"(want version {_VERSION}, got {raw.get('version')!r})"
        )
    protocol = raw.get("protocol", {})
    if not isinstance(protocol, dict):
        raise ValueError(f"{path}: protocol must be an object")
    return Baseline(
        version=_VERSION,
        effects=raw.get("effects", {}),
        state_manifest=_validate_manifest(path, raw.get("state_manifest", {})),
        protocol=protocol,
    )


def find_baseline(start: Optional[Path] = None) -> Optional[Path]:
    """The checked-in baseline next to the lint roots, if present."""
    candidate = (start or Path.cwd()) / BASELINE_NAME
    return candidate if candidate.is_file() else None


def render_manifest(
    project: ProjectContext,
    curated: Optional[Dict[str, Dict[str, str]]] = None,
) -> Dict[str, Dict[str, str]]:
    """A fresh ``state_manifest``: inventory merged with curated entries.

    Hand-written classifications survive for attributes still in the
    inventory; attributes no longer written by any handler are dropped
    (rot), and newly written attributes appear as ``unclassified`` with
    an empty reason for a human to fill in.
    """
    curated = curated or {}
    manifest: Dict[str, Dict[str, str]] = {}
    for attr in state_inventory(project):
        entry = curated.get(attr)
        if entry is not None:
            manifest[attr] = {
                "kind": str(entry.get("kind", "unclassified")),
                "reason": str(entry.get("reason", "")),
            }
        else:
            manifest[attr] = {"kind": "unclassified", "reason": ""}
    return manifest


def render_baseline(
    project: ProjectContext,
    state_manifest: Optional[Dict[str, Dict[str, str]]] = None,
) -> str:
    """Serialize a fresh baseline; deterministic byte-for-byte."""
    if state_manifest and not project.state_manifest:
        # the protocol section summarizes each automaton state with its
        # curated manifest classification — build the project again with
        # it so a baseline regenerated from a fresh ``load_project``
        # doesn't demote every state to "unclassified"
        project = ProjectContext(project.files, state_manifest=dict(state_manifest))
    analysis = effect_analysis_for(project)
    payload = {
        "version": _VERSION,
        "effects": analysis.effect_summary(),
        "protocol": protocol_summary(project),
        "state_manifest": render_manifest(project, curated=state_manifest),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def diff_effects(
    old: Dict[str, Dict[str, object]], new: Dict[str, Dict[str, object]]
) -> List[str]:
    """Human-readable drift between two effect summaries (for CI artifacts)."""
    lines: List[str] = []
    for cls in sorted(set(old) | set(new)):
        old_kinds = old.get(cls, {})
        new_kinds = new.get(cls, {})
        for kind in sorted(set(old_kinds) | set(new_kinds)):
            if kind not in old_kinds:
                lines.append(f"+ {cls}.{kind}: new handler")
                continue
            if kind not in new_kinds:
                lines.append(f"- {cls}.{kind}: handler removed")
                continue
            before, after = old_kinds[kind], new_kinds[kind]
            if before == after:
                continue
            for section in ("reads", "writes", "guards", "schedules"):
                b = {json.dumps(x) for x in before.get(section, [])}
                a = {json.dumps(x) for x in after.get(section, [])}
                for item in sorted(a - b):
                    lines.append(f"+ {cls}.{kind}.{section}: {item}")
                for item in sorted(b - a):
                    lines.append(f"- {cls}.{kind}.{section}: {item}")
            if before.get("guarded") != after.get("guarded"):
                lines.append(
                    f"! {cls}.{kind}.guarded: "
                    f"{before.get('guarded')} -> {after.get('guarded')}"
                )
    return lines


def diff_manifest(
    old: Dict[str, Dict[str, str]], new: Dict[str, Dict[str, str]]
) -> List[str]:
    """Human-readable drift between two state manifests (for CI artifacts)."""
    lines: List[str] = []
    for attr in sorted(set(old) | set(new)):
        before, after = old.get(attr), new.get(attr)
        if before is None and after is not None:
            lines.append(f"+ {attr}: new state ({after.get('kind')})")
        elif after is None and before is not None:
            lines.append(f"- {attr}: no longer handler-written")
        elif before is not None and after is not None:
            if before.get("kind") != after.get("kind"):
                lines.append(
                    f"! {attr}: {before.get('kind')} -> {after.get('kind')}"
                )
    return lines


def diff_protocol(
    old: Dict[str, object], new: Dict[str, object]
) -> List[str]:
    """Human-readable drift between two protocol-automaton summaries."""
    lines: List[str] = []
    for cls in sorted(set(old) | set(new)):
        raw_before, raw_after = old.get(cls), new.get(cls)
        before: Dict[str, object] = (
            raw_before if isinstance(raw_before, dict) else {}
        )
        after: Dict[str, object] = (
            raw_after if isinstance(raw_after, dict) else {}
        )
        if cls not in old:
            lines.append(f"+ {cls}: new dispatcher automaton")
        elif cls not in new:
            lines.append(f"- {cls}: dispatcher automaton removed")
        b_states = before.get("states", {}) or {}
        a_states = after.get("states", {}) or {}
        if isinstance(b_states, dict) and isinstance(a_states, dict):
            for attr in sorted(set(b_states) | set(a_states)):
                if attr not in b_states:
                    lines.append(
                        f"+ {cls}.states: {attr} ({a_states[attr]})"
                    )
                elif attr not in a_states:
                    lines.append(f"- {cls}.states: {attr}")
                elif b_states[attr] != a_states[attr]:
                    lines.append(
                        f"! {cls}.states: {attr} "
                        f"{b_states[attr]} -> {a_states[attr]}"
                    )
        b_couples = {json.dumps(c) for c in before.get("couples", []) or []}
        a_couples = {json.dumps(c) for c in after.get("couples", []) or []}
        for item in sorted(a_couples - b_couples):
            lines.append(f"+ {cls}.couples: {item}")
        for item in sorted(b_couples - a_couples):
            lines.append(f"- {cls}.couples: {item}")
        b_trans = before.get("transitions", {}) or {}
        a_trans = after.get("transitions", {}) or {}
        if not (isinstance(b_trans, dict) and isinstance(a_trans, dict)):
            continue
        for kind in sorted(set(b_trans) | set(a_trans)):
            if kind not in b_trans:
                lines.append(f"+ {cls}.{kind}: new transition")
                continue
            if kind not in a_trans:
                lines.append(f"- {cls}.{kind}: transition removed")
                continue
            t_before, t_after = b_trans[kind], a_trans[kind]
            if t_before == t_after:
                continue
            for section in ("enters", "releases", "guards", "schedules"):
                b = set(t_before.get(section, []))
                a = set(t_after.get(section, []))
                for item in sorted(a - b):
                    lines.append(f"+ {cls}.{kind}.{section}: {item}")
                for item in sorted(b - a):
                    lines.append(f"- {cls}.{kind}.{section}: {item}")
            if t_before.get("guarded") != t_after.get("guarded"):
                lines.append(
                    f"! {cls}.{kind}.guarded: "
                    f"{t_before.get('guarded')} -> {t_after.get('guarded')}"
                )
    return lines
