"""Cone-level verification lab, decided in Q: nothing is sampled or fitted.

Forms on the truncated cone over a fibre F are written
omega = alpha(x) + dx ∧ beta(x) with alpha, beta taking values in the
fibre cochain spaces.  This module provides:

- the weighted local cohomology table (max: k <= ceil(lo), min:
  k <= floor(lo), lo = (f-1)/2 - a, from ``stratified.weight_cuts``);
  the pullback thresholds and the root check below are exact by integer
  cross-multiplication of the numerators and denominators;
- the pullback-norm threshold and its weight integral
  ∫_0^1 x^(f-2k-2a) dx, which is finite iff k < (f+1)/2 - a;
- the slice constant K = (∫_{1/2}^1 x^(f-2k-2a) dx)^(-1);
- the radial homotopy operator K_c(omega) = ∫_c^x beta(s) ds, exact
  for polynomial radial profiles, the closed-form bound coefficient for
  its operator norm (in Q; the log case at k = (f+1)/2 - a is refused),
  and the two weighted norms that bound compares, as finite sums;
- minimal-domain membership for a fibre-harmonic mode x^gamma: inside
  the open window (lo, lo + 1) the radial coefficient
  must be o(1), i.e. gamma > 0, decided exactly from the exponent;
- ``mode_exponent``, which checks that the closed-form pair of
  ``spectral.indicial_roots`` is the spectrum of the radial system
  x v'(x) = A v(x), A = [[-k, lambda], [lambda, -(f-k-2a)]], by tr A
  and det A; run reports, ``cone-lab`` and ``verify`` all read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from edgehodge import spectral
from edgehodge.cochain import CochainComplex, QMatrix
from edgehodge.errors import ConfigError
from edgehodge.stratified import weight_cuts

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
    with the given Betti numbers: for lo = (f-1)/2 - a, max keeps the
    degrees k < lo + 1, k <= ceil(lo), and min k <= lo, k <= floor(lo)."""
    a = a if isinstance(a, Fraction) else Fraction(a)
    floor_lo, ceil_lo = weight_cuts(f, a)
    mx = tuple(b if k <= ceil_lo else 0 for k, b in enumerate(f_betti))
    mn = tuple(b if k <= floor_lo else 0 for k, b in enumerate(f_betti))
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


def homotopy_bound_coefficient(k: int, f: int, a, c) -> Fraction:
    """Closed-form coefficient bounding ||K_c omega||^2 / ||beta||^2 in the
    weighted norm, in Q; requires k < (f+3)/2 - a.  Where it is not
    rational it is a ValueError: the log case k = (f+1)/2 - a (w = 1),
    a non-integer w = f - 2k - 2a + 2, or a c that is no int or Fraction."""
    a = Fraction(a)
    e = Fraction(f - 2 * k) - 2 * a
    if e <= -3:
        raise ValueError("homotopy bound needs k < (f+3)/2 - a")
    w = e + 2
    if w == 1 or w.denominator != 1 or not isinstance(c, (int, Fraction)):
        raise ValueError(f"the bound coefficient at w = {w}, c = {c!r} is not rational")
    cq = Fraction(c)
    wi = int(w)

    def g(x: Fraction) -> Fraction:
        return x * x / 2 - cq ** (1 - wi) * x ** (wi + 1) / (wi + 1)

    total = abs(g(cq)) + abs(g(Fraction(1)) - g(cq))
    return total / abs(1 - w)


def _norm_sq(coeffs: dict[int, tuple[Fraction, ...]], w: Fraction) -> Fraction:
    """∫_0^1 |Σ x^m v_m|² x^w dx = Σ <v_m, v_m'> / (m + m' + w + 1)."""
    gram: dict[int, Fraction] = {}
    for m, v in coeffs.items():
        for m2, v2 in coeffs.items():
            gram[m + m2] = gram.get(m + m2, 0) + sum(p * q for p, q in zip(v, v2))
    return sum((g / (s + w + 1) for s, g in gram.items()), Fraction(0))


def homotopy_norms(form: PolyRadialForm, f: int, a, c) -> tuple[Fraction, Fraction]:
    """(||K_c omega||^2, ||beta||^2), each ∫_0^1 |v(x)|^2 x^w dx with
    w = f - 2k - 2a + 2 for the degree k of omega, in Q."""
    w = Fraction(f - 2 * form.degree + 2) - 2 * Fraction(a)
    if w <= -1:
        raise ValueError("the weighted norms need k < (f+3)/2 - a")
    return _norm_sq(homotopy_K(form, c).alpha, w), _norm_sq(form.beta, w)


def homotopy_bound_holds(form: PolyRadialForm, f: int, a, c) -> bool:
    """Whether ||K_c omega||^2 <= C ||beta||^2, C from
    ``homotopy_bound_coefficient``, in Q; ValueError where C is not
    rational (the log case, a non-integer exponent or a float c)."""
    coeff = homotopy_bound_coefficient(form.degree, f, a, c)
    k_sq, beta_sq = homotopy_norms(form, f, a, c)
    return k_sq <= coeff * beta_sq


# ---------------------------------------------------------------------------
# minimal-domain membership


def window_position(k: int, f: int, a) -> str:
    """Where a degree lies against the open membership window (lo, lo + 1),
    lo = (f-1)/2 - a: "inside", "boundary" or "outside"; reports flag an
    endpoint as boundary though its membership answer is the outside one."""
    floor_lo, ceil_lo = weight_cuts(f, a)
    if floor_lo == ceil_lo:
        return "boundary" if k in (floor_lo, floor_lo + 1) else "outside"
    return "inside" if k == ceil_lo else "outside"


def min_membership(k: int, f: int, a, gamma) -> bool:
    """Minimal-domain membership of the fibre-harmonic mode x^gamma,
    for an exact exponent gamma.  Outside the open window
    ((f-1)/2 - a, (f+1)/2 - a), endpoints included, every max-domain
    profile belongs: the integral casework gives the radial coefficients
    enough decay to kill the boundary pairing.  Strictly inside, the
    tangential coefficient must be o(1), which x^gamma is iff gamma > 0.
    ``window_position`` flags the endpoint case as "boundary".
    """
    if window_position(k, f, a) != "inside":
        return True
    return Fraction(gamma) > 0


# ---------------------------------------------------------------------------
# indicial exponents, checked exactly


def system_has_roots(k: int, lam2, f: int, a, gamma_minus, gamma_plus) -> bool:
    """Whether gamma- and gamma+ are the eigenvalues of the mode system's
    A = [[-k, lambda], [lambda, -(f-k-2a)]] for rational lambda^2 and
    roots: tr A = gamma- + gamma+ and det A = gamma- gamma+, each
    cross-multiplied in integers (a float enters at its exact value).
    With a = n/d, lambda^2 = u/v and gamma(-/+) = p1/q1, p2/q2,
    tr A = (2n - f d)/d and det A = (-k (2n + (k - f) d) v - u d) / (d v).
    """
    n, d = _ratio(a)
    p1, q1 = _ratio(gamma_minus)
    p2, q2 = _ratio(gamma_plus)
    qq = q1 * q2
    if (2 * n - f * d) * qq != d * (p1 * q2 + p2 * q1):
        return False
    u, v = _ratio(lam2)
    return (-k * (2 * n + (k - f) * d) * v - u * d) * qq == p1 * p2 * d * v


def system_has_surd_roots(k: int, lam2, f: int, a, centre, disc) -> bool:
    """Whether c ± sqrt(D)/2 (D need not be a square) are the eigenvalues
    of the mode system's A: tr A = 2c and det A = c^2 - D/4, in Q."""
    a11, a22 = -k, -(f - k - 2 * Fraction(a))  # the diagonal of A
    return (a11 + a22 == 2 * centre
            and a11 * a22 - Fraction(lam2) == centre * centre - Fraction(disc) / 4)


def mode_exponent(k: int, lam2, f: int, a) -> tuple[tuple[str, str], bool | None]:
    """The indicial exponents of one fibre mode (rational lambda^2) as
    exact strings, and whether they are the eigenvalues of its A; None
    at a double root.  A rational pair of ``spectral.indicial_roots``
    is checked by ``system_has_roots``; any other is c ± sqrt(D)/2 with
    c = a - f/2 and D = (f - 2a - 2k)^2 + 4 lambda^2, printed as
    "c - sqrt(D)/2" and "c + sqrt(D)/2", by ``system_has_surd_roots``."""
    pair = spectral.indicial_roots(f, a, k, lam2)
    if pair.exact:
        gm, gp = pair.gamma_minus, pair.gamma_plus
        ok = None if pair.double_root else system_has_roots(k, lam2, f, a, gm, gp)
        return (str(gm), str(gp)), ok
    c = pair.weight - Fraction(f, 2)
    disc = (f - 2 * pair.weight - 2 * k) ** 2 + 4 * Fraction(pair.lam2)
    return ((f"{c} - sqrt({disc})/2", f"{c} + sqrt({disc})/2"),
            system_has_surd_roots(k, lam2, f, a, c, disc))
