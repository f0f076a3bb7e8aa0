"""numpy is the only runtime dependency: the package imports and
``verify --all`` passes in an interpreter where scipy cannot be found."""

import os
import subprocess
import sys
from pathlib import Path

import edgehodge

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
