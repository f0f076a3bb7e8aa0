"""numpy is the only runtime dependency: the package imports and
``verify --all`` passes in an interpreter where scipy cannot be found,
and every command that does not use the dense fibre oracle runs without
loading numpy."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import edgehodge
from edgehodge.radial import log_grid

BLOCK_SCIPY = """
import runpy, sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
import edgehodge.cli
assert "scipy" not in sys.modules, "importing edgehodge.cli loaded scipy"
sys.argv = ["edgehodge", "verify", "--all"]
runpy.run_module("edgehodge.cli", run_name="__main__")
"""


def test_runs_without_scipy():
    src = str(Path(edgehodge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", BLOCK_SCIPY], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr


NO_NUMPY = """
import json, sys, tempfile
from pathlib import Path
from edgehodge.cli import main

assert "numpy" not in sys.modules, "importing edgehodge.cli loaded numpy"
config = Path(tempfile.mkdtemp()) / "run.json"
config.write_text(json.dumps({"spaces": ["cone-torus", "edge-torus-over-circle"],
                              "weights": ["-1/2", "0", "1/2"],
                              "fibre_grid": [16, 16], "suites": False}))
for argv in (["ih", "--space", "cone-torus", "--perversity", "mbar"],
             ["weights", "--space", "susp-torus", "--a", "0", "--a", "1/2"],
             ["complete", "--space", "edge-circle-over-circle"],
             ["spectral", "--f", "2", "--a", "0"],
             ["fibre-spec", "--kind", "torus", "--sizes", "16,16"],
             ["cone-lab", "--a", "0", "--mode", "0,1"],
             ["run", "--config", str(config)]):
    assert main(argv) == 0, argv
    assert "numpy" not in sys.modules, f"{argv[0]} loaded numpy"
"""


def test_commands_without_suites_load_no_numpy():
    # numpy is for the dense fibre oracle (verify, run suites) only
    src = str(Path(edgehodge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", NO_NUMPY], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("x0, ppd", [(1e-4, 400), (0.05, 400), (0.003, 120), (1e-6, 400)])
def test_log_grid_matches_numpy_logspace_to_one_ulp(x0, ppd):
    import numpy as np

    xs = log_grid(x0, ppd)
    ref = np.logspace(math.log10(x0), 0.0, len(xs))
    assert xs[0] == ref[0] and xs[-1] == ref[-1] == 1.0
    assert all(abs(x - r) <= np.spacing(r) for x, r in zip(xs, ref))
