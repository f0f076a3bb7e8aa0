"""Cone-level verification lab.

Forms on the truncated cone over a fibre F are written
omega = alpha(x) + dx ∧ beta(x) with alpha, beta taking values in the
fibre cochain spaces.  This module provides:

- the weighted local cohomology table (max: k < (f+1)/2 - a,
  min: k <= (f-1)/2 - a), evaluated exactly;
- the pullback-norm threshold and its weight integral
  ∫_0^1 x^(f-2k-2a) dx, which is finite iff k < (f+1)/2 - a;
- the slice constant K = (∫_{1/2}^1 x^(f-2k-2a) dx)^(-1);
- the radial homotopy operator K_c(omega) = ∫_c^x beta(s) ds with an
  exact path for polynomial radial profiles and a quadrature path for
  sampled ones, plus the closed-form bound coefficient for its
  operator norm (log case at k = (f+1)/2 - a handled separately);
- minimal-domain membership for fibre-harmonic modes: inside the open
  window ((f-1)/2 - a, (f+1)/2 - a) the radial coefficient must be
  o(1); decided symbolically for closed-form powers and by a log-log
  slope fit on the last decade for sampled profiles;
- numerical recovery of indicial exponents by stepping the radial
  2x2 system x v'(x) = A v(x), A = [[-k, lambda], [lambda, -(f-k-2a)]],
  from x = 1 down to x0 with its exact one-step propagator (in
  s = ln x the system has constant coefficients, so one grid step is
  exp(-hA), in closed form for a symmetric 2x2 A) and regressing
  log-magnitudes against log x.

The radial grid is logarithmic (default 400 points per decade,
x0 = 1e-4): power-law solutions are straight lines in these
coordinates, which keeps the exponent regression well conditioned.
"""

from __future__ import annotations

import bisect
import math
import statistics
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from edgehodge.cochain import CochainComplex, QMatrix
from edgehodge.errors import (
    InconclusiveSlopeError,
    QuadratureError,
    StiffnessFailureError,
)

DEFAULT_X0 = 1e-4
POINTS_PER_DECADE = 400
SLOPE_DECISION_TOL = 1e-3
RECOVERY_TOL = 1e-3


# ---------------------------------------------------------------------------
# local cohomology and the elementary constants


@dataclass(frozen=True)
class LocalCohomologyTable:
    f: int
    a: Fraction
    max_dims: tuple[int, ...]
    min_dims: tuple[int, ...]


def local_cohomology(f_betti, f: int, a) -> LocalCohomologyTable:
    """Weighted max/min cohomology of the truncated cone over a fibre
    with the given Betti numbers."""
    a = Fraction(a)
    max_cut = Fraction(f + 1, 2) - a
    min_cut = Fraction(f - 1, 2) - a
    mx = tuple(b if Fraction(k) < max_cut else 0 for k, b in enumerate(f_betti))
    mn = tuple(b if Fraction(k) <= min_cut else 0 for k, b in enumerate(f_betti))
    return LocalCohomologyTable(f, a, mx, mn)


@dataclass(frozen=True)
class PullbackNorm:
    finite: bool
    value: Fraction | None


def pullback_norm(k: int, f: int, a) -> PullbackNorm:
    """Squared weighted norm of the constant radial extension of a unit
    fibre form: ∫_0^1 x^(f-2k-2a) dx, finite iff k < (f+1)/2 - a."""
    a = Fraction(a)
    e = Fraction(f - 2 * k) - 2 * a
    if e > -1:
        return PullbackNorm(True, 1 / (e + 1))
    return PullbackNorm(False, None)


def slice_constant(k: int, f: int, a):
    """K = (∫_{1/2}^1 x^(f-2k-2a) dx)^(-1); exact when the exponent is an
    integer, 1/ln 2 at the exponent -1."""
    a = Fraction(a)
    e = Fraction(f - 2 * k) - 2 * a
    if e == -1:
        return 1.0 / math.log(2.0)
    if e.denominator == 1:
        ei = int(e)
        integral = (1 - Fraction(1, 2) ** (ei + 1)) / (ei + 1)
        return 1 / integral
    ef = float(e)
    integral = (1.0 - 0.5 ** (ef + 1.0)) / (ef + 1.0)
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

    def alpha_at(self, x: Fraction) -> tuple[Fraction, ...]:
        n = self.fibre.dim(self.degree)
        out = tuple(Fraction(0) for _ in range(n))
        for m, v in self.alpha.items():
            out = _vec_add(out, _vec_scale(x ** m, v))
        return out

    def sample(self, xs):
        """(|alpha|, |beta|) Euclidean coefficient norms on the grid (numpy)."""
        import numpy as np
        xs = np.asarray(xs, dtype=float)
        na = self.fibre.dim(self.degree)
        nb = self.fibre.dim(self.degree - 1)
        avals = np.zeros((len(xs), na))
        for m, v in self.alpha.items():
            avals += np.outer(xs ** m, [float(c) for c in v])
        bvals = np.zeros((len(xs), nb))
        for m, v in self.beta.items():
            bvals += np.outer(xs ** m, [float(c) for c in v])
        return np.linalg.norm(avals, axis=1), np.linalg.norm(bvals, axis=1)


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
# sampled single-mode profiles


def log_grid(x0: float = DEFAULT_X0, points_per_decade: int = POINTS_PER_DECADE):
    """Logarithmically spaced grid on [x0, 1], endpoints included."""
    if not (0 < x0 < 1):
        raise ValueError("x0 must lie in (0, 1)")
    start = math.log10(x0)
    n = max(2, round(points_per_decade * -start))
    # np.logspace(start, 0, n + 1): the same linspace, with its end exact
    step = -start / n
    return tuple(10.0 ** (i * step + start) for i in range(n)) + (1.0,)


@dataclass
class ConeModeProfile:
    """Sampled radial coefficient pair of one fibre mode.

    ``a_samples`` is the tangential coefficient, ``t_samples`` its
    dx-partner.  ``closed_form_exponent`` tags profiles known to be a
    pure power x^gamma, which lets membership tests skip numerics.
    """

    degree: int
    lam2: float
    xs: tuple[float, ...]
    a_samples: tuple[float, ...]
    t_samples: tuple[float, ...]
    closed_form_exponent: Fraction | float | None = None

    def __post_init__(self):
        if len(self.xs) != len(self.a_samples) or len(self.xs) != len(self.t_samples):
            raise ValueError("sample arrays must match the grid")
        if any(self.xs[i] >= self.xs[i + 1] for i in range(len(self.xs) - 1)):
            raise ValueError("grid must be strictly increasing")
        if not all(map(math.isfinite, self.a_samples)) or not all(
                map(math.isfinite, self.t_samples)):
            raise ValueError("samples must be finite")


def power_profile(k: int, lam2, gamma, x0: float = DEFAULT_X0,
                  points_per_decade: int = POINTS_PER_DECADE) -> ConeModeProfile:
    """Profile a(x) = x^gamma (t = 0) with its closed-form tag."""
    xs = log_grid(x0, points_per_decade)
    gf = float(gamma)
    return ConeModeProfile(
        k, float(lam2), xs,
        tuple(x ** gf for x in xs),
        tuple(0.0 for _ in xs),
        closed_form_exponent=Fraction(gamma) if isinstance(gamma, (int, Fraction)) else float(gamma),
    )


def homotopy_K_profile(profile: ConeModeProfile, c: float) -> ConeModeProfile:
    """Sampled K_c for a single-mode profile: integrate the dx-coefficient
    from c to each grid point by the trapezoid rule.

    A Richardson comparison against the half-resolution integral guards
    the quadrature: a relative discrepancy above 1e-6 raises, which is
    what an under-resolved grid produces.
    """
    import numpy as np
    xs = np.asarray(profile.xs)
    ts = np.asarray(profile.t_samples)
    if not (xs[0] < c < xs[-1]):
        raise ValueError("c must lie inside the sampled grid")
    seg = 0.5 * (ts[1:] + ts[:-1]) * np.diff(xs)
    anti = np.concatenate(([0.0], np.cumsum(seg)))
    anti_c = float(np.interp(c, xs, anti))
    fine = anti - anti_c
    coarse_anti = np.zeros_like(anti)
    seg2 = 0.5 * (ts[2::2] + ts[:-2:2]) * (xs[2::2] - xs[:-2:2])
    coarse_anti[2::2] = np.cumsum(seg2)
    scale = float(np.max(np.abs(fine))) or 1.0
    err = float(np.max(np.abs(anti[2::2] - coarse_anti[2::2]))) / scale
    if err > 1e-6:
        raise QuadratureError(
            f"trapezoid/half-grid discrepancy {err:.2e}; grid under-resolved"
        )
    return ConeModeProfile(
        profile.degree - 1, profile.lam2, tuple(float(x) for x in xs),
        tuple(float(v) for v in fine), tuple(0.0 for _ in xs),
    )


def save_coefficient_table(path: str, xs, values) -> None:
    with open(path, "w") as fh:
        for x, v in zip(xs, values):
            fh.write(f"{x!r} {v!r}\n")


def load_coefficient_table(path: str) -> tuple[tuple[float, ...], tuple[float, ...]]:
    xs, vals = [], []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if parts:
                xs.append(float(parts[0]))
                vals.append(float(parts[1]))
    return tuple(xs), tuple(vals)


def _fit_slope(xs, ys) -> float:
    """Least-squares slope of log y against log x; NaN unless every y is
    positive and finite and the x are not all equal."""
    if not all(math.isfinite(y) and y > 0 for y in ys) or min(xs) == max(xs):
        return math.nan
    return statistics.linear_regression([math.log(x) for x in xs],
                                        [math.log(y) for y in ys]).slope


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


def min_membership(k: int, f: int, a, profile: ConeModeProfile) -> bool:
    """Minimal-domain membership of a fibre-harmonic mode profile.

    Outside the open window ((f-1)/2 - a, (f+1)/2 - a), endpoints
    included, every max-domain profile belongs: the integral casework
    gives the radial coefficients enough decay to kill the boundary
    pairing, so the answer is True.  Strictly inside the window the
    tangential coefficient must be o(1): decided exactly for
    closed-form powers, otherwise by the sign of the fitted log-log
    slope over the last decade.  Use ``window_position`` when a report
    should flag the endpoint case as "boundary".
    """
    a = Fraction(a)
    lo = Fraction(f - 1, 2) - a
    hi = Fraction(f + 1, 2) - a
    kq = Fraction(k)
    if not (lo < kq < hi):
        return True
    gamma = profile.closed_form_exponent
    if gamma is not None:
        return gamma > 0
    tail = [(x, abs(v)) for x, v in zip(profile.xs, profile.a_samples)
            if x <= 10 * profile.xs[0]]
    if all(v == 0.0 for _, v in tail):
        return True
    if any(v == 0.0 for _, v in tail):
        raise InconclusiveSlopeError("tangential coefficient vanishes on part of the tail")
    slope = _fit_slope([x for x, _ in tail], [v for _, v in tail])
    if abs(slope) < SLOPE_DECISION_TOL:
        raise InconclusiveSlopeError(
            f"fitted exponent {slope:.2e} within {SLOPE_DECISION_TOL} of zero"
        )
    return slope > 0


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


def _deflated_norms(direction, path) -> list[float]:
    """|v - (u.v) u| along ``path``, u the unit vector along ``direction``;
    a residual within one rounding unit of |v| is noise and reads as 0."""
    u1, u2 = (c / math.hypot(*direction) for c in direction)
    out = []
    for v1, v2 in path:
        dot = u1 * v1 + u2 * v2
        w = math.hypot(v1 - u1 * dot, v2 - u2 * dot)
        out.append(w if w > sys.float_info.epsilon * math.hypot(v1, v2) else 0.0)
    return out


def mode_exponent(k: int, lam2, f: int, a, x0: float = DEFAULT_X0,
                  points_per_decade: int = POINTS_PER_DECADE) -> ModeExponents:
    """Recover the two indicial exponents of one fibre mode numerically.

    Steps the radial system from x = 1 down the log grid to x0 with its
    exact one-step propagator exp(-hA) for two orthogonal initial
    vectors, fits the dominant exponent on the last decade, and extracts
    the recessive one by deflating the dominant direction from the
    second solution.  Exact double roots are flagged and excluded from
    the tolerance contract; near-double systems, overflow and
    non-finite fits are reported as stiffness failures.
    """
    if not (0 < x0 <= 0.1):
        raise ValueError("x0 must lie in (0, 1/10]")
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
    xs = log_grid(x0, points_per_decade)
    # xs is uniform in s = ln x with step h, so v(s - h) = exp(-hA) v(s); A is
    # symmetric with eigenvalues mu ± delta, which puts exp(-hA) in closed form
    h = -math.log(x0) / (len(xs) - 1)
    mu, delta = (a11 + a22) / 2, math.sqrt(disc) / 2
    try:
        scale = math.exp(-h * mu)
        ch, sh = math.cosh(h * delta), math.sinh(h * delta) / delta
    except OverflowError:
        raise StiffnessFailureError(
            f"one-step propagator exp(-hA) overflows (h*delta = {h * delta:.3g}); "
            "the grid is too coarse for this mode") from None
    p11, p12, p22 = (scale * (ch - sh * (a11 - mu)), scale * -(sh * lam),
                     scale * (ch - sh * (a22 - mu)))
    # sols[j][i] = exp(A ln xs[i]) e_j, the solution through e_j at x = 1
    sols = []
    for v1, v2 in ((1.0, 0.0), (0.0, 1.0)):
        path = [(v1, v2)]
        for _ in xs[1:]:
            v1, v2 = p11 * v1 + p12 * v2, p12 * v1 + p22 * v2
            path.append((v1, v2))
        sols.append(path[::-1])
    # a component that overflows stays non-finite down the grid
    if not all(map(math.isfinite, sols[0][0] + sols[1][0])):
        raise StiffnessFailureError("radial trajectory overflows before x0")

    last = bisect.bisect_right(xs, 10 * x0)
    slopes = [_fit_slope(xs[:last], [math.hypot(*v) for v in y[:last]])
              for y in sols]

    if abs(slopes[0] - slopes[1]) > 0.02:
        gm, gp = sorted(slopes)
        return ModeExponents(gm, gp, False)

    gm = slopes[0]
    y1, y2 = sols
    early = bisect.bisect_left(xs, 0.1)
    wmag = _deflated_norms(y1[0], y2[early:])
    if max(wmag) < 1e-12 * max(math.hypot(*v) for v in y2[early:]):
        # second solution started parallel to the dominant direction;
        # deflate the first solution instead
        wmag = _deflated_norms(y2[0], y1[early:])
    gp = _fit_slope(xs[early:], wmag)
    # a NaN slope (from a residual lost to rounding, which reads as 0)
    # fails the split above, so every non-finite fit ends here
    if not (math.isfinite(gm) and math.isfinite(gp)):
        raise StiffnessFailureError("a fitted exponent is not finite")
    return ModeExponents(gm, gp, False)
