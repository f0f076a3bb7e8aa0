"""Indicial roots of the weighted Hodge-de Rham operator on a cone.

For fibre degree k, fibre eigenvalue lambda^2 and weight a the two
indicial roots are

    gamma(+/-) = a - f/2 +- (1/2) * sqrt((f - 2a - 2k)^2 + 4 lambda^2),

so they always sum to 2a - f.  A root pair is *critical* when it falls
in the open window (a - (f+1)/2, a - (f-1)/2), which happens exactly
when (f - 2a - 2k)^2 + 4 lambda^2 < 1; critical pairs are what
obstructs essential self-adjointness.  All window comparisons are done
in exact rational arithmetic whenever lambda^2 is rational, so the
predicates cannot flip on rounding; a pair landing exactly on the
window boundary is classified non-critical and surfaced separately as
a boundary contact.  ``window_roots`` answers both from one scan of the
window; the ``spectral`` command and ``report.run`` read both parts,
and ``essentially_selfadjoint``, which ``verify`` reads, the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from edgehodge.cochain import parse_rational
from edgehodge.errors import ModelInvariantError

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


def indicial_roots(f: int, a, k: int, lam2) -> IndicialRootPair:
    """The indicial root pair for one fibre mode.

    Exact rational roots whenever lambda^2 is rational and the
    discriminant is a perfect rational square; double roots (vanishing
    discriminant) are flagged.
    """
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


def _window_modes(f: int, a, spec: FibreSpectrum):
    """Yield (degree, lambda^2, Q) with Q = (f - 2a - 2k)^2 + 4 lambda^2,
    exact when lambda^2 is rational, for each mode up to the last one
    whose Q can be <= 1.

    Levels ascend, so a degree stops at the first mode whose Q exceeds 1
    in both exact and float arithmetic: every later Fraction then has an
    exact Q above 1, and every later float is at least float(lambda^2),
    where b + 4.0 x is monotone under rounding.
    """
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
    """True iff the window ((f-1)/2 - a, (f+1)/2 - a) traps no fibre
    cohomology: either it contains no integer, or the one integer q it
    contains has betti[q] = 0."""
    a = Fraction(a)
    lo = Fraction(f - 1, 2) - a
    hi = Fraction(f + 1, 2) - a
    # the window has length one, so it contains at most one integer
    q = lo.numerator // lo.denominator + 1
    if not (lo < q < hi):
        return True
    if q < 0 or q >= len(f_betti):
        return True
    return f_betti[q] == 0

