"""Independent oracles used to freeze expected values.

These deliberately avoid the package's own elimination kernel: ranks
come from sympy's rational row reduction, spectra from the analytic
closed forms, so a bug in the production path cannot hide itself.
``dense_model_dict`` writes model files in the older dense form, which
the loader still reads and some fixtures edit entry by entry.
"""

from __future__ import annotations

import math
from fractions import Fraction

import sympy


def sympy_cohomology(cx) -> tuple[int, ...]:
    """Cohomology dimensions via sympy ranks (independent of elim)."""
    def rank(m):
        if m.rows == 0 or m.cols == 0:
            return 0
        return sympy.Matrix([[sympy.Rational(x) for x in row]
                             for row in m.entries]).rank()

    out = []
    for k in range(len(cx.dims)):
        out.append(cx.dims[k] - rank(cx.d_at(k)) - rank(cx.d_at(k - 1)))
    return tuple(out)


def sympy_matrix_rank(rows) -> int:
    if not rows or not rows[0]:
        return 0
    return sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows]).rank()


def convolution(b1, b2) -> tuple[int, ...]:
    if not b1 or not b2:
        return ()
    out = [0] * (len(b1) + len(b2) - 1)
    for i, x in enumerate(b1):
        for j, y in enumerate(b2):
            out[i + j] += x * y
    return tuple(out)


def truncated_betti(betti, cutoff: Fraction) -> tuple[int, ...]:
    return tuple(b if Fraction(k) <= cutoff else 0 for k, b in enumerate(betti))


def circle_discrete_eigenvalue(n: int, length: float, m: int) -> float:
    """Analytic eigenvalue of the n-segment discrete circle Laplacian."""
    return (2.0 * n / length * math.sin(math.pi * m / n)) ** 2


def indicial_pair_closed_form(f: int, a: Fraction, k: int, lam2) -> tuple:
    """Direct evaluation of the root formula, floats throughout."""
    centre = float(a) - f / 2.0
    disc = (f - 2 * float(a) - 2 * k) ** 2 + 4 * float(lam2)
    half = math.sqrt(disc) / 2.0
    return centre - half, centre + half


def weight_perversities(f: int, a: Fraction) -> tuple[Fraction, Fraction]:
    """(max, min) perversities of the weight a in the bracket form of the
    weights module notes, evaluated in Fraction arithmetic:
    mbar + ceil_strict(a - 1 or a - 1/2) and mlow + ceil_weak(a or
    a - 1/2), with ceil_strict(t) = floor(t) + 1 and ceil_weak = ceil."""
    half = Fraction(1, 2)
    if f % 2 == 1:
        mlow = mbar = (f - 1) // 2
        t_max, t_min = a - 1, a
    else:
        mlow, mbar = f // 2, f // 2 - 1
        t_max = t_min = a - half
    return Fraction(mbar + math.floor(t_max) + 1), Fraction(mlow + math.ceil(t_min))


def dense_lists(m) -> list[list[str]]:
    """Row-major rational strings of a matrix, zeros included."""
    return [[str(x) for x in row] for row in m.entries]


def dense_model_dict(space) -> dict:
    """Model record with every matrix dense and Y always present."""
    def cx(c):
        return {"dims": list(c.dims), "differentials": [dense_lists(m) for m in c.d]}

    return {
        "name": space.name,
        "n": space.n,
        "b": space.b,
        "f": space.f,
        "F": cx(space.F),
        "B": cx(space.B),
        "M": cx(space.M),
        "Y": cx(space.Y),
        "restriction": {"maps": [dense_lists(m) for m in space.restriction.maps]},
        "bigrading": "product",
        "description": space.description,
    }
