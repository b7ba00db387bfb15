"""``tools/reachability.py``: the inventory of functions and its diff
against the functions a run calls, on a two-module package built here (the
real runs it makes are too slow for this suite)."""

import fnmatch
import importlib
import importlib.util
import pathlib
import sys
import threading

import pytest

ROOT = pathlib.Path(__file__).parent.parent


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "reachability", ROOT / "tools" / "reachability.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = _load_tool()

CALLER = '''\
from reach_demo import lib


def called():
    def inner():
        return lib.helper()

    return inner()


def uncalled():
    return 0


class Box:
    @property
    def decorated(self):
        return 2
'''

LIB = '''\
def helper():
    return 1


def unused():
    return None
'''


def _package(tmp_path):
    package = tmp_path / "reach_demo"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "caller.py").write_text(CALLER)
    (package / "lib.py").write_text(LIB)
    return package


def _import(tmp_path, monkeypatch, name):
    """Import ``name`` from the package under ``tmp_path``, not from the one
    an earlier test built and left in ``sys.modules``."""
    monkeypatch.syspath_prepend(str(tmp_path))
    for cached in [m for m in sys.modules if m.split(".")[0] == "reach_demo"]:
        monkeypatch.delitem(sys.modules, cached)
    return importlib.import_module(name)


def test_inventory_names_every_function_at_its_first_line(tmp_path):
    package = _package(tmp_path)
    functions = tool.inventory(package)
    caller = str((package / "caller.py").resolve())
    assert functions == {
        (caller, 4): ("reach_demo.caller", "called", 5),
        (caller, 5): ("reach_demo.caller", "called.<locals>.inner", 2),
        (caller, 11): ("reach_demo.caller", "uncalled", 2),
        # a decorated function's code starts at its first decorator
        (caller, 16): ("reach_demo.caller", "Box.decorated", 2),
        (str((package / "lib.py").resolve()), 1): ("reach_demo.lib", "helper", 2),
        (str((package / "lib.py").resolve()), 5): ("reach_demo.lib", "unused", 2),
    }
    skipped = tool.inventory(package, skip=("reach_demo.lib",))
    assert {name for _module, name, _lines in skipped.values()} == {
        "called", "called.<locals>.inner", "uncalled", "Box.decorated",
    }


def test_the_diff_lists_what_no_run_called(tmp_path, monkeypatch):
    package = _package(tmp_path)
    caller = _import(tmp_path, monkeypatch, "reach_demo.caller")
    called = tool.reached([caller.called, lambda: caller.Box().decorated])
    functions = tool.inventory(package)
    text, missing = tool.report(functions, called, {})
    assert text.splitlines() == [
        "2 of 6 functions unreached, 4 of 15 lines",
        "reach_demo.caller:uncalled: NO REASON",
        "reach_demo.lib:unused: NO REASON",
    ]
    assert missing == 2
    kept_list = tmp_path / "kept.txt"
    kept_list.write_text("# comment\nkept on purpose\n    reach_demo.lib:*\n")
    kept = tool.load_kept(kept_list)
    assert kept == {"reach_demo.lib:*": "kept on purpose"}
    text, missing = tool.report(functions, called, kept)
    assert text.splitlines()[-1] == "reach_demo.lib:unused: kept on purpose"
    assert missing == 1


def test_every_kept_pattern_has_a_reason():
    kept = tool.load_kept()
    assert kept and all(kept.values())


def test_a_function_run_in_a_thread_counts_as_reached(tmp_path, monkeypatch):
    package = _package(tmp_path)
    lib = _import(tmp_path, monkeypatch, "reach_demo.lib")

    def in_a_thread():
        worker = threading.Thread(target=lib.unused)
        worker.start()
        worker.join()

    called = tool.reached([in_a_thread])
    lib_path = str((package / "lib.py").resolve())
    assert (lib_path, 5) in called and (lib_path, 1) not in called


def test_the_profile_is_removed_when_a_run_raises():
    def fails():
        raise RuntimeError("run failed")

    with pytest.raises(RuntimeError, match="run failed"):
        tool.reached([fails])
    assert sys.getprofile() is None
    assert threading.getprofile() is None


def test_skip_names_whole_modules_only(tmp_path):
    package = _package(tmp_path)
    assert len(tool.inventory(package, skip=("reach_demo.li",))) == 6
    assert tool.inventory(package, skip=("reach_demo",)) == {}


def test_the_first_matching_reason_wins(tmp_path):
    package = _package(tmp_path)
    kept_list = tmp_path / "kept.txt"
    kept_list.write_text(
        "the narrow reason\n    reach_demo.lib:unused\n"
        "the broad reason\n    reach_demo.*:*\n"
    )
    text, missing = tool.report(tool.inventory(package), set(), tool.load_kept(kept_list))
    assert missing == 0
    assert "reach_demo.lib:unused: the narrow reason" in text.splitlines()
    assert "reach_demo.lib:helper: the broad reason" in text.splitlines()


def test_every_kept_pattern_names_a_library_function():
    """A pattern whose code is gone would hide nothing and mislead the reader."""
    names = [
        f"{module}:{name}"
        for module, name, _lines in tool.inventory(
            ROOT / "src" / "repro", skip=("repro.analysis",)
        ).values()
    ]
    stale = [
        pattern
        for pattern in tool.load_kept()
        if not any(fnmatch.fnmatchcase(name, pattern) for name in names)
    ]
    assert stale == []


def test_an_edit_while_the_runs_go_does_not_unreach_a_function(tmp_path, monkeypatch):
    """The inventory is taken before the runs: a run that prepends lines to
    a module it already imported must not shift that module's functions
    away from the line numbers its calls carry."""
    package = _package(tmp_path)
    lib = _import(tmp_path, monkeypatch, "reach_demo.lib")

    def edits_its_module_then_calls():
        lib_file = package / "lib.py"
        lib_file.write_text("# an edit made during the audit\n\n" + lib_file.read_text())
        lib.helper()
        lib.unused()

    text, missing = tool.audit(
        [edits_its_module_then_calls], package, skip=("reach_demo.caller",), kept={}
    )
    assert (text, missing) == ("0 of 2 functions unreached, 0 of 4 lines", 0)
