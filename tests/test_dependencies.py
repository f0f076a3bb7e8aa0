"""The package has no runtime dependency: it imports and every command
runs in an interpreter where numpy or scipy cannot be found, and
``verify --all`` prints its frozen table there."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import edgehodge

from oracles import log_grid

# run with the name of the module to block as its first argument
BLOCKER = """
import sys

BLOCKED = sys.argv[1]


class Block:
    def find_spec(self, name, path=None, target=None):
        if name == BLOCKED or name.startswith(BLOCKED + "."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, Block())
"""

BLOCK_SCIPY = BLOCKER + """
import runpy

import edgehodge.cli
assert "scipy" not in sys.modules, "importing edgehodge.cli loaded scipy"
sys.argv = ["edgehodge", "verify", "--all"]
runpy.run_module("edgehodge.cli", run_name="__main__")
"""


def _run_blocked(script: str, *args: str) -> subprocess.CompletedProcess:
    src = str(Path(edgehodge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, env=env, timeout=300)


def test_runs_without_scipy():
    proc = _run_blocked(BLOCK_SCIPY, "scipy")
    assert proc.returncode == 0, proc.stderr


BLOCK_NUMPY = BLOCKER + """
import contextlib, io, json, tempfile
from pathlib import Path

from edgehodge.cli import main

tmp = Path(tempfile.mkdtemp())
config = tmp / "run.json"
config.write_text(json.dumps({"spaces": ["cone-torus", "edge-torus-over-circle"],
                              "weights": ["0", "1/2"], "fibre_grid": [8, 8],
                              "suites": True}))


def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0, argv
    return out.getvalue()


run("list")
run("ih", "--space", "cone-torus", "--perversity", "mbar")
run("weights", "--space", "susp-torus", "--a", "0", "--a", "1/2")
run("spectral", "--f", "2", "--a", "0", "--fibre-kind", "torus", "--sizes", "16,16")
run("fibre-spec", "--kind", "circle", "--sizes", "64", "--csv", str(tmp / "spec.csv"))
run("cone-lab", "--a", "0", "--betti", "1,2,1", "--mode", "0,0", "--mode", "1,1")
run("complete", "--space", "edge-torus-over-circle")
assert run("verify", "--all") == Path(sys.argv[2]).read_text()
json.loads(run("verify", "--all", "--json"))
json.loads(run("run", "--config", str(config), "--json"))
assert "numpy" not in sys.modules
"""


def test_every_command_runs_without_numpy():
    frozen = Path(__file__).parent / "data" / "verify_all.txt"
    proc = _run_blocked(BLOCK_NUMPY, "numpy", str(frozen))
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("x0, ppd", [(1e-4, 400), (0.05, 400), (0.003, 120), (1e-6, 400)])
def test_log_grid_matches_numpy_logspace_to_one_ulp(x0, ppd):
    import numpy as np

    xs = log_grid(x0, ppd)
    ref = np.logspace(math.log10(x0), 0.0, len(xs))
    assert xs[0] == ref[0] and xs[-1] == ref[-1] == 1.0
    assert all(abs(x - r) <= np.spacing(r) for x, r in zip(xs, ref))


LEAN_CLI = """
import sys

import edgehodge.cli
from edgehodge import radial

assert "statistics" not in sys.modules, "importing edgehodge.cli loaded statistics"
# the float fit and the sampled norms, now in the tests' oracles only
deleted = ["_decade_slope", "_propagator", "radial_system_matrix", "recovery_error",
           "ModeExponents", "_LogGrid", "log_grid", "_fit_slope", "weighted_norm_sq",
           "_sample_norms", "homotopy_operator_estimate", "DEFAULT_X0",
           "POINTS_PER_DECADE", "RECOVERY_TOL", "StiffnessFailureError"]
left = [name for name in deleted if hasattr(radial, name)]
assert not left, f"radial still has {left}"
assert not hasattr(radial.PolyRadialForm, "sample")
assert not hasattr(edgehodge.errors, "StiffnessFailureError")
"""


def test_cli_imports_no_float_fit():
    proc = _run_blocked(LEAN_CLI)
    assert proc.returncode == 0, proc.stderr


LEAN_RUN = """
import sys

from edgehodge import report

assert report.run(report.RunConfig({"spaces": ["cone-torus"], "weights": ["0", "1/2"],
                                    "fibre_grid": [4, 4], "suites": False}))["ok"]
loaded = sorted(m for m in ("edgehodge.verify", "csv") if m in sys.modules)
assert not loaded, f"a run without suites loaded {loaded}"
"""


def test_run_without_suites_imports_neither_verify_nor_csv():
    proc = _run_blocked(LEAN_RUN)
    assert proc.returncode == 0, proc.stderr


LEAN_WEIGHTS = """
import sys

import edgehodge.weights

loaded = sorted(name for name in ("spectral", "radial", "fibredec", "report", "verify")
                if "edgehodge." + name in sys.modules)
assert not loaded, f"importing edgehodge.weights loaded {loaded}"
"""


def test_weights_imports_no_cone_or_report_module():
    # the weight window lives in stratified, which weights already reads
    proc = _run_blocked(LEAN_WEIGHTS)
    assert proc.returncode == 0, proc.stderr
