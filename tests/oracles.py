"""Independent oracles used to freeze expected values.

These deliberately avoid the package's own elimination kernel: ranks
come from sympy's rational row reduction, spectra from the analytic
closed forms and from a dense numpy eigensolve of the fibre Laplacian,
so a bug in the production path cannot hide itself.
``dense_model_dict`` writes model files in the older dense form, which
the loader still reads and some fixtures edit entry by entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import sympy

RESIDUAL_TOL = 1e-9


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


def _d_dense(fibre, q: int):
    mat = fibre.complex.d_at(q)
    out = np.zeros((mat.rows, mat.cols))
    for i, row in enumerate(mat.sparse_rows):
        for j, v in row.items():
            out[i, j] = v
    return out


def _weight(fibre, q: int):
    return np.asarray(fibre.weights[q]) if 0 <= q <= fibre.top_degree else np.zeros(0)


def laplacian_matrix(fibre, q: int):
    """Symmetrized weighted Hodge Laplacian in degree q, a numpy array."""
    if not (0 <= q <= fibre.top_degree):
        raise ValueError("degree out of range")
    n = fibre.dim(q)
    w = _weight(fibre, q)
    s = np.zeros((n, n))
    wq_isqrt = 1.0 / np.sqrt(w)
    wq_sqrt = np.sqrt(w)
    d_up = _d_dense(fibre, q)
    if d_up.shape[0]:
        a = d_up * wq_isqrt[None, :]
        s += a.T @ (_weight(fibre, q + 1)[:, None] * a)
    d_dn = _d_dense(fibre, q - 1)
    if d_dn.shape[1]:
        b = (wq_sqrt[:, None] * d_dn) / np.sqrt(_weight(fibre, q - 1))[None, :]
        s += b @ b.T
    return s


class EigensolverError(Exception):
    """Eigensolve did not meet its residual contract."""


@dataclass
class SpectrumResult:
    degree: int
    eigenvalues: tuple[float, ...]
    harmonic_dim: int
    residual_max: float


def _solve_degree(fibre, q: int, check_count: int) -> tuple:
    """Full ascending spectrum plus (norm, zero count, max residual).

    A zero mode is an eigenvalue below dim · machine-eps · norm, the
    eigensolver's own error bound."""
    s = laplacian_matrix(fibre, q)
    vals, vecs = np.linalg.eigh(s)
    n = fibre.dim(q)
    norm = max(abs(vals[0]), abs(vals[-1])) if n else 0.0
    res = 0.0
    for i in range(min(check_count, n)):
        r = np.linalg.norm(s @ vecs[:, i] - vals[i] * vecs[:, i])
        res = max(res, r)
    if n and res > RESIDUAL_TOL * max(norm, 1.0):
        raise EigensolverError(
            f"residual {res:.3e} exceeds contract in degree {q}"
        )
    zeros = int(np.sum(vals < n * np.finfo(float).eps * norm)) if n else 0
    return vals, norm, zeros, res


def fibre_spectrum(fibre, q: int, count: int) -> SpectrumResult:
    """Lowest ``count`` eigenvalues of the degree-q weighted Laplacian.

    The eigensolve must meet the residual contract
    ||A v - lambda v|| <= 1e-9 ||A|| for every reported pair; failure
    raises rather than silently truncating.
    """
    n = fibre.dim(q)
    if count > n:
        raise ValueError(f"requested {count} eigenvalues of a {n}-dim space")
    vals, _norm, zeros, res = _solve_degree(fibre, q, count)
    return SpectrumResult(q, tuple(float(v) for v in vals[:count]),
                          zeros, float(res))


# ---------------------------------------------------------------------------
# Fraction references for the cone decisions that ``spectral`` and
# ``radial`` make in integer arithmetic: each body normalises a Fraction
# on every operation, which is slower but plainly the formula.


def window_modes_fraction(f: int, a, spec):
    """(degree, lambda^2, Q) with Q = (f - 2a - 2k)^2 + 4 lambda^2 for each
    mode up to the last one whose Q can be <= 1 (``spectral._window_modes``)."""
    a = Fraction(a)
    for q in spec.degrees():
        base = Fraction(f - 2 * a - 2 * q) ** 2
        base_f = float(base)
        for lam2, _mult in spec.eigenvalues(q):
            if isinstance(lam2, Fraction):
                quantity = base + 4 * lam2
                past = quantity > 1 and base_f + 4.0 * float(lam2) > 1
            else:
                quantity = base_f + 4.0 * lam2
                past = quantity > 1 and (lam2 == math.inf
                                         or base + 4 * Fraction(lam2) > 1)
            if past:
                break
            yield q, lam2, quantity


def indicial_roots_fraction(f: int, a, k: int, lam2):
    """The indicial root pair of one fibre mode (``spectral.indicial_roots``)."""
    from edgehodge.spectral import IndicialRootPair, _as_number, _sqrt_exact

    a = Fraction(a)
    lam2 = _as_number(lam2)
    centre = a - Fraction(f, 2)
    if isinstance(lam2, Fraction):
        disc = Fraction(f - 2 * a - 2 * k) ** 2 + 4 * lam2
        root = _sqrt_exact(disc)
        if root is not None:
            half = root / 2
            return IndicialRootPair(centre - half, centre + half, k, lam2,
                                    a, disc == 0, True)
        halff = math.sqrt(float(disc)) / 2
        return IndicialRootPair(float(centre) - halff, float(centre) + halff,
                                k, lam2, a, False, False)
    disc_f = float(Fraction(f - 2 * a - 2 * k) ** 2) + 4.0 * lam2
    halff = math.sqrt(disc_f) / 2
    return IndicialRootPair(float(centre) - halff, float(centre) + halff,
                            k, lam2, a, disc_f == 0.0, False)


def unique_closed_extension_fraction(f: int, a, f_betti) -> bool:
    """Whether ((f-1)/2 - a, (f+1)/2 - a) traps no fibre cohomology
    (``spectral.unique_closed_extension_d``)."""
    a = Fraction(a)
    lo = Fraction(f - 1, 2) - a
    hi = Fraction(f + 1, 2) - a
    q = lo.numerator // lo.denominator + 1
    if not (lo < q < hi):
        return True
    if q < 0 or q >= len(f_betti):
        return True
    return f_betti[q] == 0


def local_cohomology_fraction(f_betti, f: int, a):
    """Weighted max/min cone cohomology (``radial.local_cohomology``)."""
    from edgehodge.radial import LocalCohomologyTable

    a = Fraction(a)
    max_cut = Fraction(f + 1, 2) - a
    min_cut = Fraction(f - 1, 2) - a
    mx = tuple(b if Fraction(k) < max_cut else 0 for k, b in enumerate(f_betti))
    mn = tuple(b if Fraction(k) <= min_cut else 0 for k, b in enumerate(f_betti))
    return LocalCohomologyTable(f, a, mx, mn)


def pullback_norm_fraction(k: int, f: int, a):
    """∫_0^1 x^(f-2k-2a) dx, finite iff k < (f+1)/2 - a
    (``radial.pullback_norm``)."""
    from edgehodge.radial import PullbackNorm

    a = Fraction(a)
    e = Fraction(f - 2 * k) - 2 * a
    if e > -1:
        return PullbackNorm(True, 1 / (e + 1))
    return PullbackNorm(False, None)


def system_has_roots_fraction(k: int, lam2, f: int, a, gamma_minus, gamma_plus) -> bool:
    """tr A and det A of the mode system against the pair, in Q
    (``radial.system_has_roots``)."""
    a22 = 2 * Fraction(a) + k - f
    return (a22 - k == gamma_minus + gamma_plus
            and -k * a22 - Fraction(lam2) == gamma_minus * gamma_plus)
