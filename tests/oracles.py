"""Independent oracles used to freeze expected values.

These deliberately avoid the package's own elimination kernel: ranks
come from sympy's rational row reduction, spectra from the analytic
closed forms and from a dense numpy eigensolve of the fibre Laplacian,
so a bug in the production path cannot hide itself.
``dense_model_dict`` writes model files in the older dense form, which
the loader still reads and some fixtures edit entry by entry.  The
float radial lab (``fit_mode_exponent``, a log-grid fit of the indicial
exponents, and ``homotopy_operator_estimate``, a trapezoid of the
homotopy norms) is the numeric counterpart of ``radial``'s exact checks,
the weight dictionary's parity and bracket cases are the counterpart of
the one window of ``stratified.weight_cuts``, and a few names the
package has no reader for are kept here as the tests' references.
"""

from __future__ import annotations

import bisect
import math
import statistics
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import sympy

from edgehodge import radial

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
    """Model record with every matrix dense and Y always present: a model
    holds no Y, so it is written as tensor(B, F)."""
    from edgehodge.cochain import tensor

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
        "Y": cx(tensor(space.B, space.F)),
        "restriction": {"maps": [dense_lists(m) for m in space.rho]},
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


# ---------------------------------------------------------------------------
# names the package has no reader for, kept as the tests' references


def cone_local_ih(f_betti, f: int, p, k: int) -> int:
    """Local intersection cohomology of the cone over a link with the
    given Betti numbers: the fibre class survives iff k <= f - 1 - p."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    if k >= len(f_betti):
        return 0
    return f_betti[k] if k <= f - 1 - Fraction(p) else 0


def ih_dim(space, p, k: int) -> int:
    """Dimension of IH^k_p; 0 above degree n."""
    from edgehodge.stratified import ih_dims

    if k < 0:
        raise ValueError("degree must be nonnegative")
    dims = ih_dims(space, p)
    return dims[k] if k < len(dims) else 0


# ---------------------------------------------------------------------------
# the weight window case by case, by the parity of f and two brackets,
# against which every reader of ``stratified.weight_cuts`` is compared


def _max_value(f: int, a: Fraction) -> int:
    """Max-extension perversity of the weight a, as an integer."""
    _, mbar = middle_perversities(f)
    n, d = a.numerator, a.denominator
    if f % 2 == 1:
        return mbar + n // d
    return mbar + (2 * n - d) // (2 * d) + 1


def _min_value(f: int, a: Fraction) -> int:
    """Min-extension perversity of the weight a, as an integer."""
    mlow, _ = middle_perversities(f)
    n, d = a.numerator, a.denominator
    if f % 2 == 1:
        return mlow - (-n // d)
    return mlow - (d - 2 * n) // (2 * d)


def max_perversity(f: int, a):
    """The max-extension perversity of the weight a, by the parity of f
    (``weights._perversities``)."""
    from edgehodge.stratified import Perversity

    return Perversity(_max_value(f, Fraction(a)))


def min_perversity(f: int, a):
    """The min-extension perversity of the weight a, by the parity of f
    (``weights._perversities``)."""
    from edgehodge.stratified import Perversity

    return Perversity(_min_value(f, Fraction(a)))


def middle_perversities(f: int) -> tuple[int, int]:
    """(mlow, mbar) at codimension f + 1, by the parity of f
    (``stratified.middle_perversities``)."""
    if f < 0:
        raise ValueError("link dimension must be nonnegative")
    if f % 2 == 1:
        m = (f - 1) // 2
        return m, m
    return f // 2, f // 2 - 1


def window_position_fraction(k: int, f: int, a) -> str:
    """Where k lies against ((f-1)/2 - a, (f+1)/2 - a), in Fraction
    arithmetic (``radial.window_position``)."""
    a = Fraction(a)
    lo = Fraction(f - 1, 2) - a
    hi = Fraction(f + 1, 2) - a
    kq = Fraction(k)
    if kq == lo or kq == hi:
        return "boundary"
    return "inside" if lo < kq < hi else "outside"


# ---------------------------------------------------------------------------
# the float radial lab: a log-grid fit of the indicial exponents and a
# trapezoid of the homotopy norms, against which the exact checks of
# ``radial.mode_exponent`` and ``radial.homotopy_norms`` are compared

DEFAULT_X0 = 1e-4
POINTS_PER_DECADE = 400
RECOVERY_TOL = 1e-3


class StiffnessFailureError(Exception):
    """Indicial exponents too close to a double root for reliable recovery."""


def sample(form, xs):
    """(|alpha|, |beta|) Euclidean coefficient norms of a cone form
    (``radial.PolyRadialForm``) on the grid, as lists: |Σ x^m v_m|² =
    Σ x^(m+m') <v_m, v_m'>, with the Gram coefficients summed exactly
    and the sum taken by Horner's rule."""
    xs = [float(x) for x in xs]
    return _sample_norms(form.alpha, xs), _sample_norms(form.beta, xs)


def _sample_norms(coeffs: dict[int, tuple[Fraction, ...]], xs: list[float]) -> list[float]:
    if not coeffs:
        return [0.0] * len(xs)
    gram: dict[int, Fraction] = {}
    for m, v in coeffs.items():
        for m2, v2 in coeffs.items():
            gram[m + m2] = gram.get(m + m2, 0) + sum(a * b for a, b in zip(v, v2))
    lo, hi = min(gram), max(gram)
    desc = [float(gram.get(p, 0)) for p in range(hi, lo - 1, -1)]
    out = []
    for x in xs:
        acc = 0.0
        for g in desc:
            acc = acc * x + g
        out.append(math.sqrt(max(acc * x ** lo, 0.0)))
    return out


def weighted_norm_sq(xs, magnitudes, exponent: float) -> float:
    """Trapezoid estimate of ∫ |v(x)|^2 x^exponent dx over the grid."""
    xs = [float(x) for x in xs]
    vals = [m * m * x ** exponent for x, m in zip(xs, map(float, magnitudes))]
    return math.fsum((x1 - x0) * (v1 + v0) / 2.0
                     for x0, x1, v0, v1 in zip(xs, xs[1:], vals, vals[1:]))


def homotopy_operator_estimate(form, f: int, a, c, xs=None) -> dict:
    """Sampled check that ||K_c omega|| <= C ||beta|| in the weighted norm."""
    if xs is None:
        xs = log_grid(DEFAULT_X0)
    k = form.degree
    a = Fraction(a)
    e = float(Fraction(f - 2 * k) - 2 * a)
    kc = radial.homotopy_K(form, c)
    kmag, _ = sample(kc, xs)
    _, bmag = sample(form, xs)
    lhs = weighted_norm_sq(xs, kmag, e + 2)
    beta_sq = weighted_norm_sq(xs, bmag, e + 2)
    coeff = float(radial.homotopy_bound_coefficient(k, f, a, c))
    return {
        "norm_K_sq": lhs,
        "norm_beta_sq": beta_sq,
        "coefficient": coeff,
        "ok": lhs <= coeff * beta_sq * (1 + 1e-9) + 1e-300,
    }


# the logarithmic radial grid


class _LogGrid:
    """The points of ``log_grid(x0, points_per_decade)``, evaluated on
    demand.  It is a sequence, so ``bisect`` finds a point by reading
    about log2(n) of them."""

    def __init__(self, x0: float, points_per_decade: int):
        if not (0 < x0 < 1):
            raise ValueError("x0 must lie in (0, 1)")
        self.start = math.log10(x0)
        self.n = max(2, round(points_per_decade * -self.start))
        self.step = -self.start / self.n

    def __len__(self) -> int:
        return self.n + 1

    def __getitem__(self, i: int) -> float:
        return self.points(i, i + 1)[0]

    def points(self, lo: int, hi: int) -> list[float]:
        """The grid points lo, ..., hi - 1."""
        # 10 ** linspace(start, 0, n + 1), with its end exact
        start, step, n = self.start, self.step, self.n
        return [10.0 ** (i * step + start) if i < n else 1.0 for i in range(lo, hi)]


def log_grid(x0: float = DEFAULT_X0, points_per_decade: int = POINTS_PER_DECADE):
    """Logarithmically spaced grid on [x0, 1], endpoints included."""
    grid = _LogGrid(x0, points_per_decade)
    return tuple(grid.points(0, len(grid)))


def _fit_slope(xs, ys) -> float:
    """Least-squares slope of log y against log x; NaN unless every y is
    positive and finite and the x are not all equal."""
    if not all(math.isfinite(y) and y > 0 for y in ys) or min(xs) == max(xs):
        return math.nan
    return statistics.linear_regression([math.log(x) for x in xs],
                                        [math.log(y) for y in ys]).slope


@dataclass(frozen=True)
class ModeExponents:
    gamma_minus_hat: float
    gamma_plus_hat: float
    double_root: bool


def recovery_error(me: ModeExponents, pair) -> tuple[float, bool]:
    """Largest distance of the recovered exponents from the closed-form
    pair (``spectral.indicial_roots``), and whether it is within
    RECOVERY_TOL."""
    err = max(abs(me.gamma_minus_hat - float(pair.gamma_minus)),
              abs(me.gamma_plus_hat - float(pair.gamma_plus)))
    return err, err <= RECOVERY_TOL


def radial_system_matrix(k: int, lam2: float, f: int, a):
    """Coefficient matrix A of the mode system x v'(x) = A v(x), as rows."""
    lam = math.sqrt(float(lam2))
    af = float(Fraction(a))
    return ((-float(k), lam), (lam, -(f - k - 2 * af)))


def _propagator(t: float, system) -> tuple[float, float, float]:
    """exp(tA) / (exp(t mu) cosh(t delta)) as its entries (p11, p12, p22),
    for system = (a11, lambda, a22, mu, delta): A is symmetric with
    eigenvalues mu ± delta, so exp(t(A - mu)) = cosh(t delta) +
    sinh(t delta) (A - mu) / delta, and dividing by cosh leaves entries
    of size at most 2 for any t."""
    a11, lam, a22, mu, delta = system
    th = math.tanh(t * delta) / delta
    return 1 + th * (a11 - mu), th * lam, 1 + th * (a22 - mu)


def _decade_slope(system, h: float, skip: int, xs) -> float:
    """Exponent of the dominant solution of x v'(x) = A v(x) over the grid
    points xs, taken in stepping order h apart in ln x.

    The fundamental matrix starts at the identity ``skip`` steps before
    xs[0] and reaches xs[0] in one jump, the renormalised
    exp(skip h A), whose dropped scale factor no slope reads.  It then
    crosses the decade one exact step exp(hA) at a time, and the column
    that is larger at xs[-1] is fitted.
    """
    _, _, _, mu, delta = system
    try:
        scale = math.exp(h * mu) * math.cosh(h * delta)
    except OverflowError:
        raise StiffnessFailureError(
            f"one-step propagator exp({'-' if h < 0 else ''}hA) overflows "
            f"(h*delta = {abs(h) * delta:.3g}); the grid is too coarse for "
            "this mode") from None
    p11, p12, p22 = (scale * p for p in _propagator(h, system))
    # the columns (a1, a2) and (b1, b2) of the symmetric jump
    a1, a2, b2 = _propagator(skip * h, system)
    b1 = a2
    path = [(a1, a2, b1, b2)]
    for _ in range(len(xs) - 1):
        a1, a2 = p11 * a1 + p12 * a2, p12 * a1 + p22 * a2
        b1, b2 = p11 * b1 + p12 * b2, p12 * b1 + p22 * b2
        path.append((a1, a2, b1, b2))
    col = 0 if math.hypot(a1, a2) >= math.hypot(b1, b2) else 2
    slope = _fit_slope(xs, [math.hypot(s[col], s[col + 1]) for s in path])
    if not math.isfinite(slope):
        raise StiffnessFailureError(
            "a fitted exponent is not finite: the radial states on its "
            "decade leave the float range")
    return slope


def fit_mode_exponent(k: int, lam2, f: int, a, x0: float = DEFAULT_X0,
                      points_per_decade: int = POINTS_PER_DECADE) -> ModeExponents:
    """Recover the two indicial exponents of one fibre mode numerically.

    Each exponent is fitted where its solution dominates.  gamma- is the
    slope on the last decade [x0, 10 x0], stepping down from x = 1 with
    the exact one-step propagator exp(-hA); gamma+ is the slope on the
    first decade [1/10, 1], stepping up from x0 with exp(hA).  Each
    pass crosses the span before its decade in one closed-form jump
    and steps only the decade's grid points.  Exact double roots are
    flagged and excluded from the tolerance contract; near-double
    systems, an overflowing one-step propagator and a decade whose
    states leave the float range are reported as stiffness failures.
    """
    if not (0 < x0 <= 0.1):
        raise ValueError("x0 must lie in (0, 1/10]")
    if points_per_decade < 2:
        raise ValueError("points_per_decade must be at least 2")
    aq = Fraction(a)
    if isinstance(lam2, (int, Fraction)):
        disc_exact = Fraction(f - 2 * aq - 2 * k) ** 2 + 4 * Fraction(lam2)
        disc = float(disc_exact)
        is_double = disc_exact == 0
    else:
        disc = float(Fraction(f - 2 * aq - 2 * k) ** 2) + 4.0 * float(lam2)
        is_double = disc == 0.0
    centre = float(aq) - f / 2.0
    if is_double:
        return ModeExponents(centre, centre, True)
    if math.sqrt(disc) < 0.05:
        raise StiffnessFailureError(
            f"indicial gap {math.sqrt(disc):.3g} too small for regression"
        )

    (a11, lam), (_, a22) = radial_system_matrix(k, float(lam2), f, a)
    system = (a11, lam, a22, (a11 + a22) / 2, math.sqrt(disc) / 2)
    grid = _LogGrid(x0, points_per_decade)
    n = grid.n
    # the grid is uniform in s = ln x with step h
    h = -math.log(x0) / n
    last = bisect.bisect_right(grid, 10 * x0)  # last decade: points 0 .. last - 1
    early = bisect.bisect_left(grid, 0.1)  # first decade: points early .. n
    gm = _decade_slope(system, -h, n - last + 1, grid.points(0, last)[::-1])
    gp = _decade_slope(system, h, early, grid.points(early, n + 1))
    return ModeExponents(gm, gp, False)
