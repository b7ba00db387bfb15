"""Command-line front end: ``python -m repro.analysis [paths...]``.

With no paths, lints ``src/``, ``tests/``, ``benchmarks/`` and
``examples/`` relative to the current directory (the repo-root CI
invocation) — per-file rules on each file, then the whole-program rules
(call graph, RNG stream flow, virtual-time races) over everything parsed
together.  Exit status is 0 when clean, 1 on findings, 2 on usage errors.

``analysis_baseline.json`` in the current directory is picked up
automatically (override with ``--baseline``): its ``state_manifest``
classifies the state inventory the lifecycle rules check.
``--write-baseline`` regenerates the effect summaries and the manifest in
place (carrying the existing classifications); ``--drift`` prints the
drift between the baseline and HEAD — effect summaries, state manifest,
protocol automata, one section each — before ``--write-baseline``
records it, and ``--protocol-tables``
renders the extracted protocol automata as the markdown block embedded
in ``docs/engine.md``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis import lifecycle as _lifecycle  # noqa: F401  (project rules)
from repro.analysis import protocol as _protocol  # noqa: F401  (project rules)
from repro.analysis import races as _races  # noqa: F401  (registers project rules)
from repro.analysis import rngflow as _rngflow  # noqa: F401
from repro.analysis import rules as _rules  # noqa: F401  (registers the catalog)
from repro.analysis.baseline import (
    BASELINE_NAME,
    Baseline,
    diff_effects,
    diff_manifest,
    diff_protocol,
    find_baseline,
    load_baseline,
    render_baseline,
    render_manifest,
)
from repro.analysis.effects import effect_analysis_for
from repro.analysis.protocol import protocol_summary, render_protocol_tables
from repro.analysis.reporting import render_github, render_json, render_text
from repro.analysis.visitor import (
    all_project_rules,
    all_rules,
    lint_project,
    load_project,
)

__all__ = ["main", "build_parser"]

DEFAULT_PATHS = ("src", "tests", "benchmarks", "examples")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Simulation-safety static analysis for the Q-graph repo.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help=f"files or directories to lint (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="report format (default: text; 'github' emits ::error annotations)",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule names to run (default: all)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help=(
            f"effect/manifest baseline (default: ./{BASELINE_NAME} "
            "when present; 'none' disables discovery)"
        ),
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="regenerate the baseline's effect summaries and exit",
    )
    parser.add_argument(
        "--drift",
        action="store_true",
        help=(
            "print effect-summary, state-manifest and protocol-automaton "
            "drift vs the baseline and exit 0"
        ),
    )
    parser.add_argument(
        "--protocol-tables",
        action="store_true",
        help=(
            "print the extracted protocol automata as markdown tables "
            "(the docs/engine.md block) and exit 0"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _resolve_baseline(arg: Optional[str]) -> Optional[Path]:
    if arg == "none":
        return None
    if arg is not None:
        return Path(arg)
    return find_baseline()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        catalog = {**all_rules(), **all_project_rules()}
        for name, rule in sorted(catalog.items()):
            roles = ",".join(rule.roles)
            scope = "project" if name in all_project_rules() else "file"
            print(f"{name:<22} [{roles}] ({scope}) {rule.description}")
        return 0

    if args.paths:
        paths = [Path(p) for p in args.paths]
    else:
        paths = [Path(p) for p in DEFAULT_PATHS if Path(p).exists()]
        if not paths:
            print(
                "repro-lint: none of the default paths "
                f"{DEFAULT_PATHS} exist under {Path.cwd()}",
                file=sys.stderr,
            )
            return 2

    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"repro-lint: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2

    select: Optional[List[str]] = None
    if args.select:
        select = [name.strip() for name in args.select.split(",") if name.strip()]
        known = set(all_rules()) | set(all_project_rules())
        unknown = set(select) - known
        if unknown:
            # a typo'd --select silently selecting nothing would read as
            # "clean"; fail loudly and name the catalog
            print(
                f"repro-lint: unknown rule(s): {', '.join(sorted(unknown))}\n"
                f"valid rules: {', '.join(sorted(known))}",
                file=sys.stderr,
            )
            return 2

    baseline_path = _resolve_baseline(args.baseline)
    baseline = Baseline()
    if baseline_path is not None:
        if not baseline_path.is_file():
            print(f"repro-lint: no such baseline: {baseline_path}", file=sys.stderr)
            return 2
        try:
            baseline = load_baseline(baseline_path)
        except ValueError as exc:
            print(f"repro-lint: {exc}", file=sys.stderr)
            return 2

    if args.write_baseline or args.drift or args.protocol_tables:
        # the effect summary is defined over the library sources only —
        # benchmarks/tests neither declare handlers nor shift effect sets;
        # the curated manifest rides along so the protocol automata carry
        # real state classifications instead of "unclassified"
        project = load_project(paths, manifest=baseline.state_manifest)
        if args.write_baseline:
            target = baseline_path or Path(BASELINE_NAME)
            target.write_text(
                render_baseline(project, state_manifest=baseline.state_manifest),
                encoding="utf-8",
            )
            print(f"repro-lint: wrote {target}")
            return 0
        if args.protocol_tables:
            print(render_protocol_tables(project), end="")
            return 0
        sections = (
            (
                "effect-summary",
                diff_effects(
                    baseline.effects,
                    effect_analysis_for(project).effect_summary(),
                ),
            ),
            (
                "state-manifest",
                diff_manifest(
                    baseline.state_manifest,
                    render_manifest(project, curated=baseline.state_manifest),
                ),
            ),
            (
                "protocol-automaton",
                diff_protocol(baseline.protocol, protocol_summary(project)),
            ),
        )
        for what, drift in sections:
            for line in drift:
                print(line)
            print(f"repro-lint: {len(drift)} {what} change(s) vs baseline")
        return 0

    violations = lint_project(
        paths, select=select, manifest=baseline.state_manifest
    )
    renderer = {
        "json": render_json,
        "github": render_github,
    }.get(args.format, render_text)
    print(renderer(violations))
    return 1 if violations else 0
