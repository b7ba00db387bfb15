"""Package metadata for the Q-graph reproduction (``src/`` layout).

A plain ``setup.py`` rather than a ``pyproject.toml`` so that legacy
editable installs (``pip install -e .``) work in offline environments
where the ``wheel`` package, needed for PEP 660 editable wheels, is absent.
"""
import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"

setup(
    name="repro",
    version=re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(), re.M).group(1),
    description="Q-graph: preserving query locality in multi-query graph processing",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy"],
    # scipy is the tests' and the measurement spine's oracle, not a
    # dependency of the library
    extras_require={"test": ["scipy", "pytest", "hypothesis"]},
)
