"""Indicial roots of the weighted Hodge-de Rham operator on a cone.

For fibre degree k, fibre eigenvalue lambda^2 and weight a the two
indicial roots are

    gamma(+/-) = a - f/2 +- (1/2) * sqrt((f - 2a - 2k)^2 + 4 lambda^2),

so they always sum to 2a - f.  A root pair is *critical* when it falls
in the open window (a - (f+1)/2, a - (f-1)/2), which happens exactly
when (f - 2a - 2k)^2 + 4 lambda^2 < 1; critical pairs are what
obstructs essential self-adjointness.  Every window comparison is
exact whenever lambda^2 is rational, so the predicates cannot flip on
rounding: with a = n/d, f - 2a - 2k is the integer (f - 2k) d - 2n over
d, and each comparison of rationals is decided by integer
cross-multiplication (a/b < c/d iff ad < cb for b, d > 0), without
normalising a Fraction at every step.  A pair landing exactly on the
window boundary is classified non-critical and surfaced separately as
a boundary contact.  ``window_roots`` answers both from one scan of the
window; the ``spectral`` command and ``report.run`` read both parts,
and ``essentially_selfadjoint``, which ``verify`` reads, the first.
``unique_closed_extension_d`` reads the weight window (lo, lo + 1),
lo = (f-1)/2 - a, from ``stratified.weight_cuts``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from edgehodge.cochain import parse_rational
from edgehodge.errors import ModelInvariantError
from edgehodge.stratified import weight_cuts

Number = Fraction | float


def _as_number(x) -> Number:
    if isinstance(x, (Fraction, int)):
        return Fraction(x)
    return float(x)


def _sqrt_exact(x: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    if x < 0:
        return None
    ns = math.isqrt(x.numerator)
    ds = math.isqrt(x.denominator)
    if ns * ns == x.numerator and ds * ds == x.denominator:
        return Fraction(ns, ds)
    return None


@dataclass(frozen=True)
class IndicialRootPair:
    """The two indicial roots attached to one (degree, eigenvalue) mode."""

    gamma_minus: Number
    gamma_plus: Number
    degree: int
    lam2: Number
    weight: Fraction
    double_root: bool
    exact: bool

    def sum_rule_defect(self, f: int) -> float:
        """gamma- + gamma+ - (2a - f); zero exactly in the exact branch."""
        return float(self.gamma_minus + self.gamma_plus - (2 * self.weight - f))


class FibreSpectrum:
    """Per-degree eigenvalues lambda^2 of the fibre Laplacian.

    ``levels[q]`` is an ascending list of (eigenvalue, multiplicity)
    pairs; eigenvalues are exact rationals (closed form) or floats
    (discrete computation), with zero modes stored exactly as 0.
    ``betti`` holds the zero-mode multiplicity of each degree; a
    ``betti`` argument is only checked against it.
    """

    def __init__(self, levels: Sequence[Sequence[tuple]], provenance: str,
                 betti: Sequence[int] | None = None):
        self.provenance = provenance
        norm: list[tuple[tuple[Number, int], ...]] = []
        for q, lv in enumerate(levels):
            pairs = [( _as_number(v), int(m)) for v, m in lv]
            for v, m in pairs:
                if v < 0:
                    raise ModelInvariantError(f"negative eigenvalue in degree {q}")
                if m <= 0:
                    raise ModelInvariantError("multiplicities must be positive")
            if any(pairs[i][0] > pairs[i + 1][0] for i in range(len(pairs) - 1)):
                raise ModelInvariantError(f"degree {q} eigenvalues not sorted")
            norm.append(tuple(pairs))
        self.levels = tuple(norm)
        self.betti = tuple(sum(m for v, m in lv if v == 0) for lv in self.levels)
        if betti is not None and self.betti != tuple(betti):
            raise ModelInvariantError(
                "zero-mode multiplicities disagree with the Betti numbers"
            )

    def degrees(self) -> range:
        return range(len(self.levels))

    def eigenvalues(self, q: int) -> tuple[tuple[Number, int], ...]:
        if 0 <= q < len(self.levels):
            return self.levels[q]
        return ()

    def zero_multiplicities(self) -> tuple[int, ...]:
        return self.betti

    def to_dict(self) -> dict:
        return {
            "provenance": self.provenance,
            "degrees": [
                [[str(v) if isinstance(v, Fraction) else repr(float(v)), m]
                 for v, m in lv]
                for lv in self.levels
            ],
        }

    @staticmethod
    def from_dict(data: dict) -> "FibreSpectrum":
        """Read a ``to_dict`` record; ValueError on a multiplicity that is
        not an integer >= 1, and ``cochain.parse_rational``'s errors."""
        levels = []
        for lv in data["degrees"]:
            pairs = []
            for v, m in lv:
                if type(m) is not int or m < 1:
                    raise ValueError(f"multiplicity {m!r} is not an integer >= 1")
                s = str(v)
                # decimal notation marks a numeric eigenvalue; p/q or a
                # bare integer is exact
                if any(ch in s for ch in ".eE"):
                    pairs.append((float(s), m))
                else:
                    pairs.append((Fraction(parse_rational(s)), m))
            levels.append(pairs)
        return FibreSpectrum(levels, data.get("provenance", "closed-form"))


def sphere2_spectrum(lmax: int = 6) -> FibreSpectrum:
    """Closed-form form-Laplacian spectrum of the round unit 2-sphere:
    eigenvalues l(l+1), functions/2-forms from l >= 0, 1-forms (both
    exact and coexact) from l >= 1."""
    fn = [(Fraction(l * (l + 1)), 2 * l + 1) for l in range(0, lmax + 1)]
    one = [(Fraction(l * (l + 1)), 2 * (2 * l + 1)) for l in range(1, lmax + 1)]
    return FibreSpectrum([fn, one, fn], "closed-form", betti=(1, 0, 1))


def _weight(a) -> Fraction:
    """a as a Fraction; a Fraction is taken as it is."""
    return a if isinstance(a, Fraction) else Fraction(a)


def indicial_roots(f: int, a, k: int, lam2) -> IndicialRootPair:
    """The indicial root pair for one fibre mode.

    Exact rational roots whenever lambda^2 is rational and the
    discriminant is a perfect rational square; double roots (vanishing
    discriminant) are flagged.  With a = n/d in lowest terms, set
    N = (f - 2k) d - 2n, so that f - 2a - 2k = N/d and the centre
    a - f/2 is (2n - f d) / (2d).  At lambda^2 = u/v the discriminant is
    the one Fraction (N^2 v + 4 u d^2) / (d^2 v); at a float lambda^2 it
    is N*N / (d*d) + 4.0 lambda^2, whose first term is float((N/d)^2)
    because int / int rounds correctly.
    """
    a = _weight(a)
    n, d = a.numerator, a.denominator
    big_n = (f - 2 * k) * d - 2 * n
    lam2 = _as_number(lam2)
    if isinstance(lam2, Fraction):
        u, v = lam2.numerator, lam2.denominator
        dd = d * d
        disc = Fraction(big_n * big_n * v + 4 * u * dd, dd * v)
        root = _sqrt_exact(disc)
        if root is not None:
            # gamma(+/-) = ((2n - f d) r_d +- d r_n) / (2 d r_d) for root r_n/r_d
            rn, rd = root.numerator, root.denominator
            c, s, den = (2 * n - f * d) * rd, d * rn, 2 * d * rd
            return IndicialRootPair(Fraction(c - s, den), Fraction(c + s, den),
                                    k, lam2, a, rn == 0, True)
        # a nonzero discriminant can round to 0.0; it is still no double root
        disc_f, double = float(disc), False
    else:
        disc_f = big_n * big_n / (d * d) + 4.0 * lam2
        double = disc_f == 0.0
    halff = math.sqrt(disc_f) / 2
    centre = (2 * n - f * d) / (2 * d)
    return IndicialRootPair(centre - halff, centre + halff,
                            k, lam2, a, double, False)


def _window_modes(f: int, a, spec: FibreSpectrum):
    """Yield (degree, lambda^2, Q) with Q = (f - 2a - 2k)^2 + 4 lambda^2,
    exact when lambda^2 is rational, for each mode up to the last one
    whose Q can be <= 1.

    Levels ascend, so a degree stops at the first mode whose Q exceeds 1
    in both exact and float arithmetic: every later Fraction then has an
    exact Q above 1, and every later float is at least float(lambda^2),
    where b + 4.0 x is monotone under rounding.

    The exact side is integer cross-multiplication.  With a = n/d in
    lowest terms and N = (f - 2k) d - 2n, so that f - 2a - 2k = N/d, Q at
    lambda^2 = u/v is (N^2 v + 4 u d^2) / (d^2 v), and Q > 1 iff
    N^2 v + 4 u d^2 > d^2 v.  A finite float lambda^2 enters the same
    inequality through its exact ``as_integer_ratio()``; the float Q is
    N*N / (d*d) + 4.0 lambda^2, as float((N/d)^2) is.
    """
    a = _weight(a)
    n, d = a.numerator, a.denominator
    dd = d * d
    for q in spec.degrees():
        big_n = (f - 2 * q) * d - 2 * n
        nn = big_n * big_n
        base_f = nn / dd
        for lam2, _mult in spec.eigenvalues(q):
            if isinstance(lam2, Fraction):
                u, v = lam2.numerator, lam2.denominator
                num, den = nn * v + 4 * u * dd, dd * v
                if num > den and base_f + 4.0 * (u / v) > 1:
                    break
                quantity = Fraction(num, den)
            else:
                quantity = base_f + 4.0 * lam2
                if quantity > 1:
                    if lam2 == math.inf:
                        break
                    u, v = lam2.as_integer_ratio()
                    if nn * v + 4 * u * dd > dd * v:
                        break
            yield q, lam2, quantity


def window_roots(f: int, a, spec: FibreSpectrum
                 ) -> tuple[list[IndicialRootPair], list[tuple[int, Number]]]:
    """One scan of the critical window: the root pairs strictly inside
    it, and the (degree, lambda^2) pairs landing exactly on its
    boundary."""
    critical, contacts = [], []
    for q, lam2, quantity in _window_modes(f, a, spec):
        if quantity < 1:
            critical.append(indicial_roots(f, a, q, lam2))
        elif quantity == 1:
            contacts.append((q, lam2))
    return critical, contacts


def essentially_selfadjoint(f: int, a, spec: FibreSpectrum) -> bool:
    """True iff no indicial root lies in the critical window."""
    return not window_roots(f, a, spec)[0]


def unique_closed_extension_d(f: int, a, f_betti: Sequence[int]) -> bool:
    """True iff the window (lo, lo + 1), lo = (f-1)/2 - a, traps no fibre
    cohomology: either lo is an integer, so the open window holds none,
    or the one integer it holds, ceil(lo), has no nonzero Betti number."""
    floor_lo, ceil_lo = weight_cuts(f, a)
    return (floor_lo == ceil_lo or not 0 <= ceil_lo < len(f_betti)
            or f_betti[ceil_lo] == 0)
