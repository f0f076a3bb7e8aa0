"""Every query answer on the built-in spaces and a subdivided model,
frozen in ``data/query_answers.json``.

The file holds IH at perversities -3 .. f + 3 in steps of 1/4, the max
and min weighted de Rham perversities and dims and the minimal Hodge
dims at weights -3 .. 3 in steps of 1/12, and the complete-metric L2
verdicts in degrees 0 .. n + 2.  Regenerate it on purpose with

    PYTHONPATH=src python tests/test_query_answers.py
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from edgehodge.cochain import tensor
from edgehodge.fibredec import build_fibre
from edgehodge.stratified import BUILTIN_NAMES, _closed_model, builtin_space, ih_dims
from edgehodge.weights import complete_l2, minimal_hodge_dims, weighted_derham_dims

DATA = Path(__file__).parent / "data" / "query_answers.json"
SUBDIVIDED = "edge-torus-over-3gon-circle"
SPACES = BUILTIN_NAMES + (SUBDIVIDED,)
WEIGHTS = [Fraction(n, 12) for n in range(-36, 37)]


def _space(name: str):
    if name != SUBDIVIDED:
        return builtin_space(name)

    def circle():
        return build_fibre("circle", 3).complex

    return _closed_model(SUBDIVIDED, circle(), tensor(circle(), circle()), "")


def query_answers(space) -> dict:
    """Every frozen answer of one space, as JSON-ready data."""
    ih = {str(p): list(ih_dims(space, p))
          for p in (Fraction(n, 4) for n in range(-12, 4 * (space.f + 3) + 1))}
    weights = {}
    for a in WEIGHTS:
        cell = {}
        for ext in ("max", "min"):
            r = weighted_derham_dims(space, a, ext)
            cell[ext] = {"perversity": str(r.perversity), "dims": list(r.dims)}
        cell["minimal_hodge"] = list(minimal_hodge_dims(space, a).dims)
        weights[str(a)] = cell
    l2 = []
    for k in range(space.n + 3):
        ans = complete_l2(space, k)
        l2.append({"verdict": ans.verdict,
                   "perversity": str(ans.perversity) if ans.perversity is not None else None})
    return {"ih": ih, "weights": weights, "complete_l2": l2}


@pytest.fixture(scope="module")
def frozen():
    return json.loads(DATA.read_text())


def test_frozen_file_covers_every_space(frozen):
    assert sorted(frozen) == sorted(SPACES)


@pytest.mark.parametrize("name", SPACES)
def test_query_answers_match_frozen_file(frozen, name):
    assert query_answers(_space(name)) == frozen[name]


if __name__ == "__main__":
    DATA.write_text(json.dumps({name: query_answers(_space(name)) for name in SPACES},
                               indent=1, sort_keys=True) + "\n")
