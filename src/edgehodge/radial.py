"""Cone-level verification lab.

Forms on the truncated cone over a fibre F are written
omega = alpha(x) + dx ∧ beta(x) with alpha, beta taking values in the
fibre cochain spaces.  This module provides:

- the weighted local cohomology table (max: k < (f+1)/2 - a,
  min: k <= (f-1)/2 - a), evaluated exactly, as are the pullback
  thresholds and the root check below, by integer cross-multiplication
  of the numerators and denominators of a, lambda^2 and the roots;
- the pullback-norm threshold and its weight integral
  ∫_0^1 x^(f-2k-2a) dx, which is finite iff k < (f+1)/2 - a;
- the slice constant K = (∫_{1/2}^1 x^(f-2k-2a) dx)^(-1);
- the radial homotopy operator K_c(omega) = ∫_c^x beta(s) ds, exact
  for polynomial radial profiles, plus the closed-form bound
  coefficient for its operator norm (log case at k = (f+1)/2 - a
  handled separately);
- minimal-domain membership for a fibre-harmonic mode x^gamma: inside
  the open window ((f-1)/2 - a, (f+1)/2 - a) the radial coefficient
  must be o(1), i.e. gamma > 0, decided exactly from the exponent;
- numerical recovery of indicial exponents from the radial 2x2
  system x v'(x) = A v(x), A = [[-k, lambda], [lambda, -(f-k-2a)]],
  each in the direction where its solution dominates: gamma- on the
  last decade [x0, 10 x0], stepping down from x = 1, and gamma+ on the
  first decade [1/10, 1], stepping up from x0.  In s = ln x the system
  has constant coefficients, so a grid step is exp(±hA) and the span
  before a decade is one jump exp(tA), both in closed form for a
  symmetric 2x2 A; the jump is renormalised so it cannot overflow.
  Log-magnitudes are regressed against log x on the decade.  The fit
  serves ``cone-lab`` and ``verify``; run reports read the exact check
  ``system_has_roots`` instead.

The radial grid is logarithmic (default 400 points per decade,
x0 = 1e-4): power-law solutions are straight lines in these
coordinates, which keeps the exponent regression well conditioned.
"""

from __future__ import annotations

import bisect
import math
import statistics
from dataclasses import dataclass, field
from fractions import Fraction

from edgehodge.cochain import CochainComplex, QMatrix
from edgehodge.errors import ConfigError, StiffnessFailureError

DEFAULT_X0 = 1e-4
POINTS_PER_DECADE = 400
RECOVERY_TOL = 1e-3
# largest |e + 1| at which slice_constant computes the exact constant
SLICE_EXPONENT_BOUND = 10_000


# ---------------------------------------------------------------------------
# local cohomology and the elementary constants


def _ratio(x) -> tuple[int, int]:
    """An exact rational as (numerator, denominator), denominator > 0."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    return x.numerator, x.denominator


@dataclass(frozen=True)
class LocalCohomologyTable:
    f: int
    a: Fraction
    max_dims: tuple[int, ...]
    min_dims: tuple[int, ...]


def local_cohomology(f_betti, f: int, a) -> LocalCohomologyTable:
    """Weighted max/min cohomology of the truncated cone over a fibre
    with the given Betti numbers.  With a = n/d in lowest terms the cuts
    k < (f+1)/2 - a and k <= (f-1)/2 - a are the integer tests
    2kd < (f+1)d - 2n and 2kd <= (f-1)d - 2n."""
    a = a if isinstance(a, Fraction) else Fraction(a)
    n, d = a.numerator, a.denominator
    max_cut, min_cut = (f + 1) * d - 2 * n, (f - 1) * d - 2 * n
    mx = tuple(b if 2 * k * d < max_cut else 0 for k, b in enumerate(f_betti))
    mn = tuple(b if 2 * k * d <= min_cut else 0 for k, b in enumerate(f_betti))
    return LocalCohomologyTable(f, a, mx, mn)


@dataclass(frozen=True)
class PullbackNorm:
    finite: bool
    value: Fraction | None


def pullback_norm(k: int, f: int, a) -> PullbackNorm:
    """Squared weighted norm of the constant radial extension of a unit
    fibre form: ∫_0^1 x^(f-2k-2a) dx = 1/(e + 1) for e = f - 2k - 2a,
    finite iff k < (f+1)/2 - a.  With a = n/d in lowest terms,
    e + 1 = e1/d for the integer e1 = (f - 2k + 1)d - 2n, so the integral
    is finite iff e1 > 0, and then it is d/e1."""
    n, d = _ratio(a)
    e1 = (f - 2 * k + 1) * d - 2 * n
    if e1 > 0:
        return PullbackNorm(True, Fraction(d, e1))
    return PullbackNorm(False, None)


def slice_constant(k: int, f: int, a):
    """K = (∫_{1/2}^1 x^(f-2k-2a) dx)^(-1); exact when the exponent e is
    an integer, 1/ln 2 at e = -1 and wherever float(e) rounds to -1.

    The exact constant has about |e + 1| bits in its numerator and
    denominator, so an integer exponent with |e + 1| above
    SLICE_EXPONENT_BOUND is rejected with ConfigError, and so is any
    exponent beyond the float range.  For any other exponent the float
    constant with m = -(e + 1) > 1023, where 2^m overflows, is
    m 2^-m / (1 - 2^-m), which underflows to 0.0.
    """
    a = Fraction(a)
    e = Fraction(f - 2 * k) - 2 * a
    if e.denominator == 1 and e != -1:
        ei = int(e)
        if abs(ei + 1) > SLICE_EXPONENT_BOUND:
            raise ConfigError(
                f"slice constant in degree {k}: |e + 1| = {abs(ei + 1)} for the "
                f"exponent e = f - 2k - 2a exceeds {SLICE_EXPONENT_BOUND}, beyond "
                "which the exact constant is not computed")
        integral = (1 - Fraction(1, 2) ** (ei + 1)) / (ei + 1)
        return 1 / integral
    try:
        ef = float(e)
    except OverflowError:
        raise ConfigError(
            f"slice constant in degree {k}: the exponent e = f - 2k - 2a is "
            "beyond the float range") from None
    if ef == -1.0:  # e rounds to -1: take the limit, not 0/0
        return 1.0 / math.log(2.0)
    try:
        integral = (1.0 - 0.5 ** (ef + 1.0)) / (ef + 1.0)
    except OverflowError:
        m = -(ef + 1.0)
        return m * 0.5 ** m / (1.0 - 0.5 ** m)
    return 1.0 / integral


# ---------------------------------------------------------------------------
# cone forms with polynomial radial profiles (exact arithmetic)


def _vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _vec_scale(c, u):
    return tuple(c * a for a in u)


def _mat_vec(m: QMatrix, u):
    return tuple(sum((v * u[j] for j, v in row.items()), Fraction(0))
                 for row in m.sparse_rows)


@dataclass
class PolyRadialForm:
    """Cone k-form alpha + dx ∧ beta with polynomial radial profiles.

    ``alpha[m]`` / ``beta[m]`` hold the exact fibre cochain coefficient
    of x^m in degree k / k-1 respectively.
    """

    fibre: CochainComplex
    degree: int
    alpha: dict[int, tuple[Fraction, ...]] = field(default_factory=dict)
    beta: dict[int, tuple[Fraction, ...]] = field(default_factory=dict)

    def _clean(self) -> "PolyRadialForm":
        self.alpha = {m: v for m, v in self.alpha.items() if any(x != 0 for x in v)}
        self.beta = {m: v for m, v in self.beta.items() if any(x != 0 for x in v)}
        return self

    def is_zero(self) -> bool:
        self._clean()
        return not self.alpha and not self.beta

    def add(self, other: "PolyRadialForm") -> "PolyRadialForm":
        if other.degree != self.degree or other.fibre != self.fibre:
            raise ValueError("cannot add cone forms of different type")
        alpha = dict(self.alpha)
        for m, v in other.alpha.items():
            alpha[m] = _vec_add(alpha[m], v) if m in alpha else v
        beta = dict(self.beta)
        for m, v in other.beta.items():
            beta[m] = _vec_add(beta[m], v) if m in beta else v
        return PolyRadialForm(self.fibre, self.degree, alpha, beta)._clean()

    def negate(self) -> "PolyRadialForm":
        return PolyRadialForm(
            self.fibre, self.degree,
            {m: _vec_scale(Fraction(-1), v) for m, v in self.alpha.items()},
            {m: _vec_scale(Fraction(-1), v) for m, v in self.beta.items()},
        )

    def sample(self, xs):
        """(|alpha|, |beta|) Euclidean coefficient norms on the grid, as
        lists: |Σ x^m v_m|² = Σ x^(m+m') <v_m, v_m'>, with the Gram
        coefficients summed exactly and the sum taken by Horner's rule."""
        xs = [float(x) for x in xs]
        return _sample_norms(self.alpha, xs), _sample_norms(self.beta, xs)


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


def radial_pullback(fibre: CochainComplex, k: int, coeffs) -> PolyRadialForm:
    """Constant radial extension of a fibre k-cochain."""
    vec = tuple(Fraction(c) for c in coeffs)
    if len(vec) != fibre.dim(k):
        raise ValueError("coefficient length does not match the fibre space")
    return PolyRadialForm(fibre, k, {0: vec}, {})._clean()


def d_cone(form: PolyRadialForm) -> PolyRadialForm:
    """Cone differential: d(alpha + dx∧beta) = d_F alpha + dx∧(alpha' - d_F beta)."""
    fibre = form.fibre
    k = form.degree
    alpha = {}
    for m, v in form.alpha.items():
        alpha[m] = _mat_vec(fibre.d_at(k), v)
    beta: dict[int, tuple[Fraction, ...]] = {}
    for m, v in form.alpha.items():
        if m >= 1:
            w = _vec_scale(Fraction(m), v)
            beta[m - 1] = _vec_add(beta[m - 1], w) if m - 1 in beta else w
    for m, v in form.beta.items():
        w = _vec_scale(Fraction(-1), _mat_vec(fibre.d_at(k - 1), v))
        beta[m] = _vec_add(beta[m], w) if m in beta else w
    return PolyRadialForm(fibre, k + 1, alpha, beta)._clean()


def scale_radial(form: PolyRadialForm, poly: dict[int, Fraction]) -> PolyRadialForm:
    """Multiply a cone form by a polynomial sigma(x) = sum poly[m] x^m."""
    alpha: dict[int, tuple[Fraction, ...]] = {}
    beta: dict[int, tuple[Fraction, ...]] = {}
    for pm, pc in poly.items():
        for m, v in form.alpha.items():
            w = _vec_scale(Fraction(pc), v)
            key = m + pm
            alpha[key] = _vec_add(alpha[key], w) if key in alpha else w
        for m, v in form.beta.items():
            w = _vec_scale(Fraction(pc), v)
            key = m + pm
            beta[key] = _vec_add(beta[key], w) if key in beta else w
    return PolyRadialForm(form.fibre, form.degree, alpha, beta)._clean()


def homotopy_K(form: PolyRadialForm, c) -> PolyRadialForm:
    """K_c(omega) = ∫_c^x beta(s) ds, exact for polynomial profiles."""
    c = Fraction(c)
    if not (Fraction(1, 2) < c < 1):
        raise ValueError("c must lie in (1/2, 1)")
    fibre = form.fibre
    alpha: dict[int, tuple[Fraction, ...]] = {}
    n = fibre.dim(form.degree - 1)
    const = tuple(Fraction(0) for _ in range(n))
    for m, v in form.beta.items():
        coeff = Fraction(1, m + 1)
        w = _vec_scale(coeff, v)
        alpha[m + 1] = _vec_add(alpha[m + 1], w) if m + 1 in alpha else w
        const = _vec_add(const, _vec_scale(-coeff * c ** (m + 1), v))
    if any(x != 0 for x in const):
        alpha[0] = _vec_add(alpha[0], const) if 0 in alpha else const
    return PolyRadialForm(fibre, form.degree - 1, alpha, {})._clean()


def homotopy_bound_coefficient(k: int, f: int, a, c):
    """Closed-form coefficient bounding ||K_c omega||^2 / ||beta||^2 in the
    weighted norm; requires k < (f+3)/2 - a.  The threshold case
    k = (f+1)/2 - a uses ∫_0^1 x |ln(x/c)| dx evaluated in closed form."""
    a = Fraction(a)
    e = Fraction(f - 2 * k) - 2 * a
    if e <= -3:
        raise ValueError("homotopy bound needs k < (f+3)/2 - a")
    cf = float(c)
    if e == -1:
        return cf * cf / 2.0 - 0.25 - math.log(cf) / 2.0
    w = e + 2
    if w.denominator == 1 and isinstance(c, (int, Fraction)):
        cq = Fraction(c)
        wi = int(w)

        def g(x: Fraction) -> Fraction:
            return x * x / 2 - cq ** (1 - wi) * x ** (wi + 1) / (wi + 1)

        total = abs(g(cq)) + abs(g(Fraction(1)) - g(cq))
        return total / abs(1 - w)
    wf = float(w)

    def gf(x: float) -> float:
        return x * x / 2.0 - cf ** (1.0 - wf) * x ** (wf + 1.0) / (wf + 1.0)

    total = abs(gf(cf)) + abs(gf(1.0) - gf(cf))
    return total / abs(1.0 - wf)


def weighted_norm_sq(xs, magnitudes, exponent: float) -> float:
    """Trapezoid estimate of ∫ |v(x)|^2 x^exponent dx over the grid."""
    xs = [float(x) for x in xs]
    vals = [m * m * x ** exponent for x, m in zip(xs, map(float, magnitudes))]
    return math.fsum((x1 - x0) * (v1 + v0) / 2.0
                     for x0, x1, v0, v1 in zip(xs, xs[1:], vals, vals[1:]))


def homotopy_operator_estimate(form: PolyRadialForm, f: int, a, c,
                               xs=None) -> dict:
    """Sampled check that ||K_c omega|| <= C ||beta|| in the weighted norm."""
    if xs is None:
        xs = log_grid(DEFAULT_X0)
    k = form.degree
    a = Fraction(a)
    e = float(Fraction(f - 2 * k) - 2 * a)
    kc = homotopy_K(form, c)
    kmag, _ = kc.sample(xs)
    _, bmag = form.sample(xs)
    lhs = weighted_norm_sq(xs, kmag, e + 2)
    beta_sq = weighted_norm_sq(xs, bmag, e + 2)
    coeff = float(homotopy_bound_coefficient(k, f, a, c))
    return {
        "norm_K_sq": lhs,
        "norm_beta_sq": beta_sq,
        "coefficient": coeff,
        "ok": lhs <= coeff * beta_sq * (1 + 1e-9) + 1e-300,
    }


# ---------------------------------------------------------------------------
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


# ---------------------------------------------------------------------------
# minimal-domain membership


def window_position(k: int, f: int, a) -> str:
    """Position of a degree relative to the open membership window:
    "inside", "boundary", or "outside".  Reports label the endpoint
    case as boundary even though the membership answer there is the
    outside one."""
    a = Fraction(a)
    lo = Fraction(f - 1, 2) - a
    hi = Fraction(f + 1, 2) - a
    kq = Fraction(k)
    if kq == lo or kq == hi:
        return "boundary"
    return "inside" if lo < kq < hi else "outside"


def min_membership(k: int, f: int, a, gamma) -> bool:
    """Minimal-domain membership of the fibre-harmonic mode x^gamma,
    for an exact exponent gamma.

    Outside the open window ((f-1)/2 - a, (f+1)/2 - a), endpoints
    included, every max-domain profile belongs: the integral casework
    gives the radial coefficients enough decay to kill the boundary
    pairing, so the answer is True.  Strictly inside the window the
    tangential coefficient must be o(1), which x^gamma is iff
    gamma > 0.  Use ``window_position`` when a report should flag the
    endpoint case as "boundary".
    """
    if window_position(k, f, a) != "inside":
        return True
    return Fraction(gamma) > 0


# ---------------------------------------------------------------------------
# numerical indicial exponent recovery


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


def system_has_roots(k: int, lam2, f: int, a, gamma_minus, gamma_plus) -> bool:
    """Whether gamma- and gamma+ are the eigenvalues of the mode system's
    A = [[-k, lambda], [lambda, -(f-k-2a)]], decided in Q for rational
    lambda^2 and roots: tr A = gamma- + gamma+ and det A = gamma- gamma+.

    Both identities are cross-multiplied in integers; a float argument
    enters at its exact value.  With a = n/d,
    lambda^2 = u/v and gamma(-/+) = p1/q1, p2/q2, tr A = (2n - f d)/d and
    det A = (-k (2n + (k - f) d) v - u d) / (d v).
    """
    n, d = _ratio(a)
    p1, q1 = _ratio(gamma_minus)
    p2, q2 = _ratio(gamma_plus)
    qq = q1 * q2
    if (2 * n - f * d) * qq != d * (p1 * q2 + p2 * q1):
        return False
    u, v = _ratio(lam2)
    return (-k * (2 * n + (k - f) * d) * v - u * d) * qq == p1 * p2 * d * v


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


def mode_exponent(k: int, lam2, f: int, a, x0: float = DEFAULT_X0,
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
