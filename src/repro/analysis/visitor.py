"""Core machinery of ``repro-lint``: file contexts, suppressions, registry.

A :class:`Rule` inspects one parsed file (:class:`FileContext`) and yields
:class:`Violation` records.  Rules are registered globally via
:func:`register` so the CLI, the reporters and the test-suite all see one
catalog.  Findings are filtered through *suppression comments*::

    offending_line()  # repro-lint: disable=rule-name -- why this is safe

The reason after ``--`` is mandatory: a suppression without one is itself
reported (``suppression-format``), so every silenced finding carries an
explanation into the diff.  ``disable-file=rule`` (anywhere in the file,
conventionally the top) silences a rule for the whole file; ``disable=all``
silences every rule on one line.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable, Dict, Hashable, Iterable, Iterator, List, Mapping, Optional,
    Sequence, Set, Tuple, TypeVar,
)

__all__ = [
    "Violation",
    "FileContext",
    "ProjectContext",
    "Rule",
    "ProjectRule",
    "register",
    "register_project",
    "all_rules",
    "all_project_rules",
    "lint_source",
    "lint_sources",
    "lint_file",
    "lint_paths",
    "lint_project",
    "load_project",
    "iter_python_files",
    "infer_role",
    "dotted_parts",
]

_T = TypeVar("_T")

#: rule applicability domains: ``src`` is library code under ``src/repro``
#: (minus the bench harness), ``bench`` is the harness / benchmark / example
#: scripts (wall-clock and ambient RNG are legitimate there), ``tests`` is
#: the pytest suite.
ROLES = ("src", "bench", "tests")

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*(?P<kind>disable|disable-file)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_\-]+(?:\s*,\s*[A-Za-z0-9_\-]+)*)"
    r"(?P<tail>.*)$"
)
_REASON_RE = re.compile(r"^\s*--\s*\S")


@dataclass(frozen=True)
class Violation:
    """One finding: a rule fired at a source location.

    ``fingerprint`` is a location-independent identity for whole-program
    findings (stable across unrelated edits), so a rule can report one
    hazard once and a test can name it without pinning line numbers.
    Empty for per-file findings.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    fingerprint: str = ""

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


@dataclass
class FileContext:
    """One file under analysis, parsed once and shared by every rule."""

    path: str
    role: str
    source: str
    tree: ast.Module
    #: line -> rule names silenced on that line (``{"all"}`` silences all)
    line_suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    #: rule names silenced for the whole file
    file_suppressions: Set[str] = field(default_factory=set)
    #: malformed suppression comments (missing ``-- reason``)
    suppression_errors: List[Violation] = field(default_factory=list)

    @classmethod
    def parse(cls, source: str, path: str, role: str) -> "FileContext":
        tree = ast.parse(source, filename=path)
        ctx = cls(path=path, role=role, source=source, tree=tree)
        ctx._scan_suppressions()
        return ctx

    def _scan_suppressions(self) -> None:
        for lineno, text in enumerate(self.source.splitlines(), start=1):
            match = _SUPPRESS_RE.search(text)
            if match is None:
                continue
            names = {part.strip() for part in match.group("rules").split(",")}
            if not _REASON_RE.match(match.group("tail")):
                self.suppression_errors.append(
                    Violation(
                        rule="suppression-format",
                        path=self.path,
                        line=lineno,
                        col=match.start(),
                        message=(
                            "suppression comment needs a reason: "
                            "'# repro-lint: disable=<rule> -- <why>'"
                        ),
                    )
                )
                continue
            if match.group("kind") == "disable-file":
                self.file_suppressions |= names
            else:
                self.line_suppressions.setdefault(lineno, set()).update(names)

    def suppressed(self, violation: Violation) -> bool:
        if {"all", violation.rule} & self.file_suppressions:
            return True
        on_line = self.line_suppressions.get(violation.line, ())
        return "all" in on_line or violation.rule in on_line


class Rule:
    """Base class for one lint rule.

    Subclasses set :attr:`name` / :attr:`description` / :attr:`roles` and
    implement :meth:`check`, yielding violations for one file.  Use
    :meth:`violation` to stamp findings with the rule's name.
    """

    #: unique kebab-case identifier (used in reports and suppressions)
    name: str = ""
    #: one-line summary for ``--list-rules`` and the docs
    description: str = ""
    #: which file roles the rule applies to
    roles: Sequence[str] = ("src",)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(self, ctx: FileContext, node: ast.AST, message: str) -> Violation:
        return Violation(
            rule=self.name,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


@dataclass(frozen=True)
class ProjectContext:
    """Every file of one analysis run, parsed once, for whole-program rules.

    Frozen: the file set and the manifest are fixed when the project is
    built, so everything :meth:`memo` holds stays valid for its lifetime.
    """

    files: List[FileContext]
    #: checked-in state classifications (``"Cls.attr" -> {kind, reason}``)
    #: from the baseline's ``state_manifest`` — consumed by the lifecycle
    #: rules; empty when no baseline is in play
    state_manifest: Dict[str, Dict[str, str]] = field(default_factory=dict)
    _memo: Dict[Hashable, object] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def by_path(self) -> Dict[str, FileContext]:
        return {ctx.path: ctx for ctx in self.files}

    def memo(self, key: Hashable, build: Callable[["ProjectContext"], _T]) -> _T:
        """``build(self)``, computed once per project and ``key``.

        Every derived structure of one run — sub-projects, the call graph,
        the effect, lifecycle, protocol and RNG-flow analyses — lives here,
        so each is built once however many rules ask for it, and is
        dropped with the project.
        """
        if key not in self._memo:
            self._memo[key] = build(self)
        return self._memo[key]  # type: ignore[return-value]

    def with_roles(self, roles: Sequence[str]) -> "ProjectContext":
        """The sub-project visible to a rule scoped to the given roles.

        The same roles yield the same sub-project, so rules sharing a role
        scope share its memo.
        """
        return self.memo(
            ("roles", tuple(roles)),
            lambda project: ProjectContext(
                [ctx for ctx in project.files if ctx.role in roles],
                state_manifest=project.state_manifest,
            ),
        )


class ProjectRule:
    """Base class for one *whole-program* rule.

    Unlike :class:`Rule`, a project rule sees every file of the run at once
    (``check_project``) — call graphs, cross-module data flow and handler
    interleavings live here.  The project it receives is already filtered
    to the rule's :attr:`roles`.  Findings should carry a location-free
    :attr:`Violation.fingerprint`.
    """

    name: str = ""
    description: str = ""
    roles: Sequence[str] = ("src",)

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(
        self,
        ctx: FileContext,
        node: ast.AST,
        message: str,
        fingerprint: str = "",
    ) -> Violation:
        return Violation(
            rule=self.name,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            fingerprint=fingerprint,
        )


_REGISTRY: Dict[str, Rule] = {}
_PROJECT_REGISTRY: Dict[str, ProjectRule] = {}


def _validate_rule(rule: object, other_names: Iterable[str]) -> None:
    name = getattr(rule, "name", "")
    if not name:
        raise ValueError(f"rule {type(rule).__name__} has no name")
    if name in other_names:
        raise ValueError(f"duplicate rule name {name!r}")
    unknown = set(rule.roles) - set(ROLES)  # type: ignore[attr-defined]
    if unknown:
        raise ValueError(f"rule {name!r} has unknown roles {sorted(unknown)}")


def register(rule_cls: type) -> type:
    """Class decorator adding one :class:`Rule` subclass to the catalog."""
    rule = rule_cls()
    _validate_rule(rule, set(_REGISTRY) | set(_PROJECT_REGISTRY))
    _REGISTRY[rule.name] = rule
    return rule_cls


def register_project(rule_cls: type) -> type:
    """Class decorator adding one :class:`ProjectRule` to the catalog."""
    rule = rule_cls()
    _validate_rule(rule, set(_REGISTRY) | set(_PROJECT_REGISTRY))
    _PROJECT_REGISTRY[rule.name] = rule
    return rule_cls


def all_rules() -> Dict[str, Rule]:
    """The registered per-file rule catalog, name -> rule instance."""
    return dict(_REGISTRY)


def all_project_rules() -> Dict[str, ProjectRule]:
    """The registered whole-program rule catalog, name -> rule instance."""
    return dict(_PROJECT_REGISTRY)


def dotted_parts(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` -> ``["a", "b", "c"]``; None for non-name chains."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def infer_role(path: Path) -> str:
    """Classify a file into a lint role from its repo-relative location.

    Checked-in lint fixtures (``**/fixtures/**``) model *library* code —
    they get the ``src`` role so linting one directly reproduces the
    finding it distills — but directory walks skip them entirely (see
    :func:`iter_python_files`), so repo-wide runs stay clean.
    """
    parts = path.parts
    if "fixtures" in parts:
        return "src"
    if "tests" in parts or path.name.startswith("test_"):
        return "tests"
    if "benchmarks" in parts or "examples" in parts:
        return "bench"
    if "repro" in parts and "bench" in parts[parts.index("repro") :]:
        return "bench"
    return "src"


def _lint_context(
    ctx: FileContext, select: Optional[Iterable[str]] = None
) -> List[Violation]:
    """Per-file rules + suppression-format errors for one parsed file."""
    selected = set(select) if select is not None else None
    findings: List[Violation] = list(ctx.suppression_errors)
    for name, rule in sorted(_REGISTRY.items()):
        if selected is not None and name not in selected:
            continue
        if ctx.role not in rule.roles:
            continue
        for violation in rule.check(ctx):
            if not ctx.suppressed(violation):
                findings.append(violation)
    return findings


def lint_source(
    source: str,
    path: str = "<string>",
    role: str = "src",
    select: Optional[Iterable[str]] = None,
) -> List[Violation]:
    """Lint one source string; returns unsuppressed violations, sorted."""
    ctx = FileContext.parse(source, path, role)
    return sorted(_lint_context(ctx, select=select), key=Violation.sort_key)


def lint_file(
    path: Path,
    root: Optional[Path] = None,
    select: Optional[Iterable[str]] = None,
) -> List[Violation]:
    """Lint one file on disk (role inferred from its path)."""
    rel = path.relative_to(root) if root is not None else path
    return lint_source(
        path.read_text(encoding="utf-8"),
        path=str(rel),
        role=infer_role(rel),
        select=select,
    )


#: directory components skipped by directory walks: compiled caches, and
#: checked-in lint fixtures (deliberate violations used by the tests and
#: the historical-bug corpus — lintable only by naming them explicitly)
_SKIPPED_DIR_PARTS = frozenset({"__pycache__", "fixtures"})


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``*.py`` files.

    Directory walks skip ``__pycache__`` and ``fixtures`` components;
    explicitly named files are always yielded.
    """
    seen: Set[Path] = set()
    for base in paths:
        if base.is_dir():
            candidates = [
                p
                for p in sorted(base.rglob("*.py"))
                if not (_SKIPPED_DIR_PARTS & set(p.relative_to(base).parts[:-1]))
            ]
        else:
            candidates = [base]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def lint_paths(
    paths: Sequence[Path],
    root: Optional[Path] = None,
    select: Optional[Iterable[str]] = None,
) -> List[Violation]:
    """Lint every ``*.py`` file under the given paths (per-file rules only).

    Whole-program rules need every file parsed together — use
    :func:`lint_project` for the full pipeline.
    """
    findings: List[Violation] = []
    for path in iter_python_files(paths):
        findings.extend(lint_file(path, root=root, select=select))
    return sorted(findings, key=Violation.sort_key)


def load_project(
    paths: Sequence[Path],
    root: Optional[Path] = None,
    manifest: Optional[Dict[str, Dict[str, str]]] = None,
) -> ProjectContext:
    """Parse every ``*.py`` file under the given paths into a project.

    Files come in path-sorted order, so the report and the effect
    baseline are deterministic.  ``manifest`` is the baseline's
    ``state_manifest``, consumed by the lifecycle and protocol analyses.
    """
    contexts = []
    for path in iter_python_files(paths):
        rel = path.relative_to(root) if root is not None else path
        text = path.read_text(encoding="utf-8")
        contexts.append(FileContext.parse(text, str(rel), infer_role(rel)))
    contexts.sort(key=lambda ctx: ctx.path)
    return ProjectContext(contexts, state_manifest=dict(manifest or {}))


def _run_project_rules(
    project: ProjectContext,
    select: Optional[Iterable[str]] = None,
) -> List[Violation]:
    """Run registered project rules; filter suppressions."""
    selected = set(select) if select is not None else None
    by_path = project.by_path()
    findings: List[Violation] = []
    for name, rule in sorted(_PROJECT_REGISTRY.items()):
        if selected is not None and name not in selected:
            continue
        for violation in rule.check_project(project.with_roles(rule.roles)):
            ctx = by_path.get(violation.path)
            if ctx is not None and ctx.suppressed(violation):
                continue
            findings.append(violation)
    return findings


def _lint_loaded(
    project: ProjectContext,
    select: Optional[Iterable[str]],
) -> List[Violation]:
    """Per-file rules on each file, then the whole-program rules."""
    selected = list(select) if select is not None else None
    findings: List[Violation] = []
    for ctx in project.files:
        findings.extend(_lint_context(ctx, select=selected))
    findings.extend(_run_project_rules(project, select=selected))
    return sorted(findings, key=Violation.sort_key)


def lint_project(
    paths: Sequence[Path],
    root: Optional[Path] = None,
    select: Optional[Iterable[str]] = None,
    manifest: Optional[Dict[str, Dict[str, str]]] = None,
) -> List[Violation]:
    """Full pipeline: per-file rules on each file + whole-program rules.

    ``manifest`` is the baseline's ``state_manifest`` (state
    classifications for the lifecycle rules).
    """
    project = load_project(paths, root=root, manifest=manifest)
    return _lint_loaded(project, select)


def lint_sources(
    sources: Mapping[str, str],
    select: Optional[Iterable[str]] = None,
    manifest: Optional[Dict[str, Dict[str, str]]] = None,
) -> List[Violation]:
    """Lint a path -> source mapping as one project (fixture helper).

    Roles are inferred from the mapping's paths, so multi-file fixtures can
    model cross-subsystem layouts (``src/repro/workload/gen.py`` + …)
    without touching disk.
    """
    project = ProjectContext(
        [
            FileContext.parse(source, path, infer_role(Path(path)))
            for path, source in sorted(sources.items())
        ],
        state_manifest=dict(manifest or {}),
    )
    return _lint_loaded(project, select)
