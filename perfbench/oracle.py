"""Expected answers, from the frozen tables in ``oracle.json`` and from
closed forms.

The perversity and weight dictionaries are re-derived here from the
formulas they implement, so a query is checked end to end: a wrong
cutoff, a wrong perversity shift or a wrong rank all show as mismatches.
Nothing here imports the package.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

ORACLE_PATH = Path(__file__).resolve().parent / "oracle.json"

# spectrum_for_predicates keeps the zero modes plus this many eigenvalues
# per degree; the critical-root list of a report is taken over that list
SPECTRUM_COUNT = 8


def _floor(x: Fraction) -> int:
    return x.numerator // x.denominator


def cutoff(f: int, p) -> int:
    """Effective truncation level: floor(f - 1 - p) clamped to [-1, f]."""
    return max(-1, min(f, _floor(Fraction(f - 1) - Fraction(p))))


def middle(f: int) -> tuple[int, int]:
    """(mlow, mbar), the two middle perversity values at link dimension f,
    in the order and convention of ``stratified.middle_perversities``."""
    return ((f - 1) // 2, (f - 1) // 2) if f % 2 else (f // 2, f // 2 - 1)


def weight_perversity(f: int, a, ext: str) -> Fraction:
    """Perversity computed by the max/min extension at weight a."""
    a = Fraction(a)
    mlow, mbar = middle(f)
    if ext == "max":  # least integer strictly above the shifted weight
        return Fraction(mbar + _floor(a - (1 if f % 2 else Fraction(1, 2))) + 1)
    return Fraction(mlow - _floor(-(a - (0 if f % 2 else Fraction(1, 2)))))


class Oracle:
    """Frozen per-space answers keyed by effective cutoff."""

    def __init__(self, tables: dict):
        self.tables = tables

    @staticmethod
    def load(path: Path = ORACLE_PATH) -> "Oracle":
        return Oracle(json.loads(path.read_text()))

    def ih(self, space: str, p) -> tuple[int, ...]:
        t = self.tables[space]
        return tuple(t["ih"][str(cutoff(t["f"], p))])

    def weighted(self, space: str, a, ext: str) -> tuple[str, tuple[int, ...]]:
        """(perversity, dims) for the max or min extension."""
        p = weight_perversity(self.tables[space]["f"], a, ext)
        return str(p), self.ih(space, p)

    def minimal_hodge(self, space: str, a) -> tuple[int, ...]:
        f = self.tables[space]["f"]
        c1 = cutoff(f, weight_perversity(f, a, "min"))
        c2 = cutoff(f, weight_perversity(f, a, "max"))
        if c1 == c2:
            return self.ih(space, weight_perversity(f, a, "min"))
        return tuple(self.tables[space]["map_ranks"][f"{c1},{c2}"])

    def complete_l2(self, space: str) -> tuple[str, ...]:
        return tuple(self.tables[space]["complete_l2"])


def circle_eigenvalues(n: int, length: float = 2 * math.pi) -> list[float]:
    """Spectrum of the n-segment circle Laplacian (degrees 0 and 1 alike):
    (2n/L sin(pi m / n))^2 for m = 0..n-1."""
    return [(2.0 * n / length * math.sin(math.pi * m / n)) ** 2 for m in range(n)]


def product_spectrum(sizes) -> list[list[float]]:
    """Per-degree eigenvalues of a product of circles, by Kunneth: on the
    (i, q - i) block the Laplacian is the sum of the factors' Laplacians."""
    levels = [[0.0]]
    for n in sizes:
        circ = circle_eigenvalues(n)
        out = [[] for _ in range(len(levels) + 1)]
        for q, vals in enumerate(levels):
            for shift in (0, 1):  # the circle's degree-0 and degree-1 parts
                out[q + shift].extend(v + w for v in vals for w in circ)
        levels = out
    return levels


def critical_modes(f: int, a, levels, betti) -> list[tuple[int, Fraction | float]]:
    """(degree, lambda^2) pairs in the critical window
    (f - 2a - 2q)^2 + 4 lambda^2 < 1, over the zero modes (exactly 0, one
    entry per degree) and the lowest SPECTRUM_COUNT nonzero eigenvalues."""
    a = Fraction(a)
    out: list[tuple[int, Fraction | float]] = []
    for q, vals in enumerate(levels):
        base = Fraction(f - 2 * a - 2 * q) ** 2
        ordered = sorted(vals)
        if betti[q] and base < 1:
            out.append((q, Fraction(0)))
        for lam2 in ordered[betti[q]: betti[q] + SPECTRUM_COUNT]:
            if float(base) + 4.0 * lam2 < 1:
                out.append((q, lam2))
    return out


def root_pair(f: int, a, q: int, lam2) -> tuple:
    """Indicial roots a - f/2 -+ sqrt((f - 2a - 2q)^2 + 4 lambda^2) / 2."""
    a = Fraction(a)
    centre = a - Fraction(f, 2)
    if isinstance(lam2, Fraction):
        disc = Fraction(f - 2 * a - 2 * q) ** 2 + 4 * lam2
        root = Fraction(math.isqrt(disc.numerator), math.isqrt(disc.denominator))
        if root * root == disc:
            return centre - root / 2, centre + root / 2
        lam2 = float(lam2)
    half = math.sqrt(float(Fraction(f - 2 * a - 2 * q) ** 2) + 4.0 * lam2) / 2
    return float(centre) - half, float(centre) + half
