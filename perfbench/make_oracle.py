#!/usr/bin/env python3
"""Regenerate ``oracle.json``, the frozen answers the benchmark checks.

For each built-in space it stores, with every rank taken by sympy's
rational row reduction and never by the package's own ``elim``:

- the IH table at each effective cutoff c in [-1, f] (cohomology of the
  Mayer-Vietoris total complex);
- the induced-map ranks Tot(c1) -> Tot(c2) for each c1 < c2 and degree,
  from rank [phi Z_A | d_B] - rank d_B with Z_A a sympy kernel basis;
- the fibre Betti numbers and the complete-L2 verdict in every degree.

The matrices come from the package's model builders; only their ranks
are independent.  Run from the checkout root (takes a few minutes):

    python3 perfbench/make_oracle.py
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import program

HERE = Path(__file__).resolve().parent


def _sympy_matrix(m):
    import sympy

    return sympy.Matrix(m.rows, m.cols,
                        [sympy.Rational(str(x)) for row in m.entries for x in row])


def _rank(m) -> int:
    if m.rows == 0 or m.cols == 0:
        return 0
    return _sympy_matrix(m).rank()


def sympy_cohomology(cx) -> list[int]:
    ranks = [_rank(cx.d_at(k)) for k in range(-1, len(cx.dims))]
    return [cx.dims[k] - ranks[k + 1] - ranks[k] for k in range(len(cx.dims))]


def sympy_map_rank(phi, k: int) -> int:
    """Rank of H^k(phi): image of the source cocycles modulo target
    coboundaries."""
    import sympy

    a, b = phi.source, phi.target
    if a.dim(k) == 0 or b.dim(k) == 0:
        return 0
    da = a.d_at(k)
    if da.rows:
        kernel = _sympy_matrix(da).nullspace()
        z = sympy.Matrix.hstack(*kernel) if kernel else sympy.zeros(a.dim(k), 0)
    else:
        z = sympy.eye(a.dim(k))
    image = _sympy_matrix(phi.at(k)) * z
    db = b.d_at(k - 1)
    if db.cols == 0:
        return image.rank()
    bound = _sympy_matrix(db)
    return sympy.Matrix.hstack(image, bound).rank() - bound.rank()


def _pad(dims, n: int) -> list[int]:
    return (list(dims) + [0] * (n + 1))[: n + 1]


def space_oracle(space) -> dict:
    n, b, f = space.n, space.b, space.f
    ih = {c: _pad(sympy_cohomology(space.total_complex(c)), n) for c in range(-1, f + 1)}
    map_ranks = {}
    for c1 in range(-1, f + 1):
        for c2 in range(c1 + 1, f + 1):
            phi = space.total_map(c1, c2)
            map_ranks[f"{c1},{c2}"] = [sympy_map_rank(phi, k) for k in range(n + 1)]
    fibre_betti = sympy_cohomology(space.F)
    complete = []
    for k in range(n + 1):
        j = Fraction(k) - Fraction(b + 1, 2)
        if j.denominator == 1 and 0 <= j < len(fibre_betti) and fibre_betti[int(j)] > 0:
            complete.append("Infinite")
            continue
        # IH at perversity f + b/2 - k, i.e. cutoff floor(k - b/2 - 1)
        cut = Fraction(f - 1) - (Fraction(f) + Fraction(b, 2) - k)
        c = max(-1, min(f, cut.numerator // cut.denominator))
        complete.append(f"Finite({ih[c][k]})")
    return {
        "n": n, "b": b, "f": f,
        "fibre_betti": fibre_betti,
        "ih": {str(c): v for c, v in ih.items()},
        "map_ranks": map_ranks,
        "complete_l2": complete,
    }


def main() -> int:
    program.load()
    from edgehodge import stratified

    out = {}
    for name in stratified.BUILTIN_NAMES:
        print(f"oracle for {name}", file=sys.stderr)
        out[name] = space_oracle(stratified.builtin_space(name))
    path = HERE / "oracle.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
