"""``repro-lint`` — simulation-safety static analysis for the Q-graph repo.

The reproduction's correctness claims rest on invariants the interpreter
cannot enforce: deterministic event orderings (no ambient RNG, no wall
clock in simulated code), lossless STOP/START migration, immutable cached
CSR views, invariant checks that survive ``python -O``.  This package is
an AST-based checker that turns those project rules into machine-checked
lint, the same way race detectors gate concurrent systems.

Layout
------
:mod:`repro.analysis.visitor`
    File loading, suppression-comment handling, the :class:`Rule` /
    :class:`ProjectRule` base classes, the rule registries, and the
    :class:`ProjectContext` memo through which every whole-program
    analysis is built once per project.
:mod:`repro.analysis.rules`
    The built-in per-file rule catalog (see ``docs/analysis.md``).
:mod:`repro.analysis.callgraph`
    Project-wide symbol table and call graph (the substrate for every
    whole-program rule).
:mod:`repro.analysis.rngflow`
    Interprocedural RNG stream-flow rules (stream crossing, unseeded
    escape, generator-in-signature).
:mod:`repro.analysis.effects` / :mod:`repro.analysis.races`
    Event-handler effect summaries and the virtual-time race rules;
    ``effects`` is also the one home of the helpers the lifecycle and
    protocol rules share (the statement walker, the empty-value and
    mutator shapes, declared-tuple discovery, manifest kinds).
:mod:`repro.analysis.lifecycle`
    State-lifecycle rules over the handler-written state inventory
    (checkpoint completeness, restore symmetry, finish-path reset
    coverage, atomic invariant-group mutation).
:mod:`repro.analysis.protocol`
    Protocol-liveness rules over the extracted barrier automata
    (barrier liveness, ack completeness, epoch-fence coverage,
    event-kind closure).
:mod:`repro.analysis.baseline`
    The checked-in ``analysis_baseline.json`` (effect summaries + state
    manifest + protocol automata).
:mod:`repro.analysis.reporting`
    Text and JSON reporters.
:mod:`repro.analysis.cli`
    The ``python -m repro.analysis`` entry point.

Usage::

    PYTHONPATH=src python -m repro.analysis            # full pipeline
    PYTHONPATH=src python -m repro.analysis --format json src/repro/engine
    PYTHONPATH=src python -m repro.analysis --select rng-stream-crossing,virtual-time-race

Suppressing a finding (the reason is mandatory)::

    t0 = time.perf_counter()  # repro-lint: disable=wall-clock -- bench harness timing
"""

from repro.analysis.visitor import (
    FileContext,
    ProjectContext,
    ProjectRule,
    Rule,
    Violation,
    all_project_rules,
    all_rules,
    lint_file,
    lint_paths,
    lint_project,
    lint_source,
    lint_sources,
    load_project,
    register,
    register_project,
)
from repro.analysis import rules as _rules  # noqa: F401  (registers the catalog)
from repro.analysis import rngflow as _rngflow  # noqa: F401  (project rules)
from repro.analysis import races as _races  # noqa: F401  (project rules)
from repro.analysis import lifecycle as _lifecycle  # noqa: F401  (project rules)
from repro.analysis import protocol as _protocol  # noqa: F401  (project rules)
from repro.analysis.reporting import render_json, render_text

__all__ = [
    "FileContext",
    "ProjectContext",
    "ProjectRule",
    "Rule",
    "Violation",
    "all_project_rules",
    "all_rules",
    "lint_file",
    "lint_paths",
    "lint_project",
    "lint_source",
    "lint_sources",
    "load_project",
    "register",
    "register_project",
    "render_json",
    "render_text",
]
