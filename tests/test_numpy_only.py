"""The library needs numpy alone: the presets build the same graph, and a
scenario runs, without importing scipy.

Runs on a machine without scipy too (this module imports neither scipy nor
hypothesis), so it shows that such a machine builds the graph the scipy-era
generator built: the CSR digests below were recorded with scipy's Qhull
triangulating the city centres.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: sha256 over the ``indptr``, ``indices`` and ``weights`` bytes
CSR_DIGESTS = {
    "bw_1.0": "db9680b81ca8fd05c5bef0d4abe95a499c470a5ab30f7d78e57d3b45433d1241",
    "gy_0.05": "1dc85f38612bb8e581f331a47426a123ca694afcda8d948b65910d4d2c8c5069",
}

_CHILD = """
import json, sys
from test_numpy_only import csr_digest
from repro.bench.harness import Scenario, run_scenario
from repro.graph import baden_wuerttemberg_like, germany_like

digests = {
    "bw_1.0": csr_digest(baden_wuerttemberg_like(scale=1.0).graph),
    "gy_0.05": csr_digest(germany_like(scale=0.05).graph),
}
result = run_scenario(
    Scenario(name="numpy-only", graph_scale=0.05, main_queries=8, disturbance_queries=2)
)
print(json.dumps({
    "digests": digests,
    "queries": result.summary()["queries"],
    "scipy": sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"),
}))
"""


def csr_digest(graph) -> str:
    import numpy as np

    h = hashlib.sha256()
    for arr, dtype in zip(graph.csr(), (np.int64, np.int64, np.float64)):
        h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def child():
    """Build both presets and run one small scenario in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(Path(__file__).parent)])
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_presets_build_the_pinned_csr(child):
    assert child["digests"] == CSR_DIGESTS


def test_building_and_running_imports_no_scipy(child):
    assert child["queries"] == 10
    assert child["scipy"] == []


_LAZY_CHILD = """
import json, sys
import repro.graph

loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "repro")
import repro

print(json.dumps({
    "loaded": loaded,
    "scenario": repro.bench.Scenario.__name__,
    "all": repro.__all__,
}))
"""


def test_graph_import_loads_no_other_layer():
    """``repro``'s subpackages load on first use: importing the graph layer
    loads no engine, controller, harness or workload module, and
    ``repro.bench`` still resolves as an attribute afterwards."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_CHILD],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    layers = {name.split(".")[1] for name in child["loaded"] if "." in name}
    assert "graph" in layers
    assert layers.isdisjoint({"engine", "core", "bench", "workload"}), layers
    assert child["scenario"] == "Scenario"
    assert child["all"] == [
        "bench", "core", "engine", "graph", "partitioning", "queries",
        "simulation", "workload", "ReproError", "__version__",
    ]
