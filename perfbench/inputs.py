"""Seeded inputs for the three workloads.

Everything here is a pure function of the seed, and every input is plain
JSON data (model dicts, rational strings, a run config), so the program
sees only what a user would hand it.  ``program.load()`` must have run
before this module is imported.
"""

from __future__ import annotations

import random
from fractions import Fraction

from edgehodge import cochain, stratified

from oracle import cutoff, weight_perversity

# subdivided-edge: edge-torus-over-circle on integer n-gon circles
N_GON = 3
SUBDIVIDED_ORACLE = "edge-torus-over-circle"
SUBDIVIDED_PERVERSITIES = ("-1", "0", "1", "2", "3")
# weight 0 maps cutoff 0 into cutoff 1 and weight 1 cutoff -1 into cutoff
# 0, so both minimal-Hodge tables need induced-map ranks
SUBDIVIDED_WEIGHTS = ("0", "1")

# catalogue-sweep: one job is one pass over all built-in spaces, cycling
# through this many seeded passes.  Each pass asks every space one seeded
# perversity per effective cutoff and one seeded weight per (min, max)
# cutoff pair, so every pass does the same work for every seed and only
# the rational values asked change.
CATALOGUE_PASSES = 4
PERVERSITY_MARGIN = 3  # perversities are drawn from [-3, f + 3]

REPORT_SPACES = ("cone-torus", "edge-circle-over-circle",
                 "edge-torus-over-circle", "susp-torus")
REPORT_WEIGHTS = 6
REPORT_GRID = (16, 16)

# Quarter-integer weights: f - 2a - 2k is then 0 or at least 1/2 away
# from it, so the radial lab never meets a near-double (stiff) root.
WEIGHT_POOL = tuple(str(Fraction(n, 4)) for n in range(-6, 7))


def relabelled_circle(n: int, rng: random.Random) -> dict:
    """Complex dict of an n-gon circle with vertices and edges permuted
    and every edge given a random orientation."""
    vperm = list(range(n))
    eperm = list(range(n))
    rng.shuffle(vperm)
    rng.shuffle(eperm)
    sign = [rng.choice((1, -1)) for _ in range(n)]
    d0 = [[0] * n for _ in range(n)]
    for e in range(n):
        d0[eperm[e]][vperm[e]] = -sign[e]
        d0[eperm[e]][vperm[(e + 1) % n]] = sign[e]
    return {"dims": [n, n], "differentials": [[[str(x) for x in row] for row in d0]]}


def _diagonal_map(dims) -> dict:
    """Map dict of x -> (x, x) from a complex into its double."""
    maps = []
    for d in dims:
        eye = [["1" if i == j else "0" for j in range(d)] for i in range(d)]
        maps.append(eye + [row[:] for row in eye])
    return {"maps": maps}


def subdivided_model(rng: random.Random) -> dict:
    """edge-torus-over-circle rebuilt from relabelled n-gon circles: the
    base is one circle, the link the torus of two further circles."""
    base = cochain.complex_from_dict(relabelled_circle(N_GON, rng))
    torus = cochain.tensor(cochain.complex_from_dict(relabelled_circle(N_GON, rng)),
                           cochain.complex_from_dict(relabelled_circle(N_GON, rng)))
    doubled = cochain.direct_sum(base, base)
    diag = cochain.map_from_dict(base, doubled, _diagonal_map(base.dims))
    restriction = cochain.tensor_map(diag, cochain.ComplexMap.identity(torus))
    return {
        "name": f"edge-torus-over-circle-{N_GON}gon",
        "n": 4,
        "b": 1,
        "f": 2,
        "F": cochain.complex_to_dict(torus),
        "B": cochain.complex_to_dict(doubled),
        "M": cochain.complex_to_dict(restriction.source),
        "Y": cochain.complex_to_dict(restriction.target),
        "restriction": cochain.map_to_dict(restriction),
        "bigrading": "product",
        "description": "S^1 x (suspension of T^2) on 3-gon circles",
    }


def _perversities(rng: random.Random, f: int) -> list[str]:
    """One rational perversity (denominator 1 to 4) per effective cutoff
    -1..f, so the list spans the extended range p <= -1 and p > f - 1."""
    out = []
    for c in range(f, -2, -1):
        while True:
            den = rng.choice((1, 2, 3, 4))
            p = Fraction(rng.randint(-PERVERSITY_MARGIN * den,
                                     (f + PERVERSITY_MARGIN) * den), den)
            if cutoff(f, p) == c:
                out.append(str(p))
                break
    return out


def _weights(rng: random.Random, f: int) -> list[str]:
    """One weight from WEIGHT_POOL per (min, max) cutoff pair it reaches."""
    classes: dict[tuple[int, int], list[str]] = {}
    for a in WEIGHT_POOL:
        pair = (cutoff(f, weight_perversity(f, a, "min")),
                cutoff(f, weight_perversity(f, a, "max")))
        classes.setdefault(pair, []).append(a)
    return [rng.choice(members) for members in classes.values()]


def _builtin_dicts(names) -> list[dict]:
    return [stratified.model_to_dict(stratified.builtin_space(n)) for n in names]


def make_inputs(workload: str, seed: int) -> dict:
    """The seeded inputs of one workload, as JSON-ready data."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "subdivided-edge":
        return {
            "model": subdivided_model(rng),
            "oracle_space": SUBDIVIDED_ORACLE,
            "perversities": list(SUBDIVIDED_PERVERSITIES),
            "weights": list(SUBDIVIDED_WEIGHTS),
        }
    if workload == "catalogue-sweep":
        models = _builtin_dicts(stratified.BUILTIN_NAMES)
        passes = []
        for _ in range(CATALOGUE_PASSES):
            passes.append([
                {"perversities": _perversities(rng, m["f"]), "weights": _weights(rng, m["f"])}
                for m in models
            ])
        return {"models": models, "passes": passes}
    if workload == "run-report":
        config = {
            "spaces": list(REPORT_SPACES),
            "weights": rng.sample(WEIGHT_POOL, REPORT_WEIGHTS),
            "fibre_grid": list(REPORT_GRID),
            "suites": False,
        }
        return {"config": config, "models": _builtin_dicts(REPORT_SPACES)}
    raise ValueError(f"unknown workload {workload!r}")
