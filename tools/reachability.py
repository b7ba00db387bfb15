"""List the library functions that no real run reaches:  python3 tools/reachability.py

Runs the four spine workloads (full size, seed 7), the examples and ``benchmarks.claims.evaluate``
(not ``main()``: it rewrites the docs) under ``sys.setprofile``, about 3 minutes, diffs the calls
against an AST inventory of ``src/repro`` minus ``repro.analysis`` and prints each unreached
function with the reason it stays, from ``tools/reachability_kept.txt``; exits 1 if one has none.
"""

import ast
import contextlib
import fnmatch
import io
import os
import runpy
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_kept(path=ROOT / "tools" / "reachability_kept.txt"):
    """``pattern -> reason``: indented patterns share the unindented reason above."""
    kept, reason = {}, None
    for line in Path(path).read_text().splitlines():
        if line[:1].isspace() and line.strip():
            kept[line.strip()] = reason
        elif line.strip() and not line.startswith("#"):
            reason = line
    return kept


def inventory(src, skip=()):
    """``(file, first line) -> (module, qualname, lines)`` of every function in the package
    ``src`` but the modules under ``skip``; the first line is the first decorator's, as in code."""
    found, src = {}, Path(src).resolve()
    for path in sorted(src.rglob("*.py")):
        parts = path.relative_to(src.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        if any(module == s or module.startswith(s + ".") for s in skip):
            continue
        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(str(path), first)] = (module, prefix + child.name, child.end_lineno - child.lineno + 1)
                    walk(child, f"{prefix}{child.name}.<locals>.")
                else:
                    walk(child, f"{prefix}{child.name}." if isinstance(child, ast.ClassDef) else prefix)
        walk(ast.parse(path.read_text()), "")
    return found


def reached(runs):
    """The ``(file, first line)`` of every Python function that ``runs`` call."""
    seen = set()
    def profile(frame, event, _arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        for run in runs:
            run()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in seen}


def report(functions, called, kept):
    """The unreached functions with their reasons, and how many have none."""
    unreached = sorted(info for site, info in functions.items() if site not in called)
    lines = sum(u[2] for u in unreached), sum(f[2] for f in functions.values())
    out = [f"{len(unreached)} of {len(functions)} functions unreached, {lines[0]} of {lines[1]} lines"]
    for module, name, _lines in unreached:
        why = next((w for p, w in kept.items() if fnmatch.fnmatchcase(f"{module}:{name}", p)), None)
        out.append(f"{module}:{name}: {why or 'NO REASON'}")
    return "\n".join(out), sum(line.endswith(": NO REASON") for line in out)


def real_runs():
    from benchmarks.claims import EXPERIMENTS, evaluate
    from benchmarks.spine.workloads import WORKLOADS, build
    for workload in WORKLOADS.values():
        yield lambda w=workload: build(w, seed=7).engine.run()
    for example in sorted((ROOT / "examples").glob("*.py")):
        yield lambda e=example: runpy.run_path(str(e), run_name="__main__")
    yield lambda: evaluate(EXPERIMENTS)


def audit(runs, src=ROOT / "src" / "repro", skip=("repro.analysis",), kept=None):
    """:func:`report` on what ``runs`` (their output silenced) reach of the package ``src``.  The
    inventory is read before the runs start, which is when they import the library, so a file
    edited while they run cannot shift its line numbers away from those the calls carry."""
    functions = inventory(src, skip)
    with contextlib.redirect_stdout(io.StringIO()):
        called = reached(runs)
    return report(functions, called, load_kept() if kept is None else kept)


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    text, missing = audit(real_runs())
    print(text)
    sys.exit(1 if missing else 0)
