"""The distribution metadata describes the real package tree.

``setup.py`` used to call ``setup()`` with no arguments and point at a
``pyproject.toml`` that does not exist, so ``pip install -e .`` installed
an empty distribution named ``UNKNOWN``.
"""

import subprocess
import sys
from pathlib import Path

import setuptools

import repro

REPO_ROOT = Path(__file__).resolve().parent.parent

SUBPACKAGES = (
    "analysis", "bench", "core", "engine", "graph", "partitioning",
    "queries", "simulation", "workload",
)


def test_find_packages_lists_repro_and_its_nine_subpackages():
    found = setuptools.find_packages(str(REPO_ROOT / "src"))
    assert sorted(found) == ["repro"] + [f"repro.{name}" for name in SUBPACKAGES]


def test_setup_py_declares_name_and_version():
    proc = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["repro", repro.__version__]
