"""Weight-to-perversity dictionary for weighted L2 de Rham cohomology.

Two rounding brackets drive everything: floor(t) + 1, the least
integer strictly greater than t, and ceil(t), the least integer >= t.
For an incomplete edge metric with weight a the max/min extensions of d
compute intersection cohomology at the perversities

    max:  mbar + floor(a - 1) + 1    (f odd)
          mbar + floor(a - 1/2) + 1  (f even)
    min:  mlow + ceil(a)             (f odd)
          mlow + ceil(a - 1/2)       (f even)

and the minimal Hodge cohomology is the image of the min-perversity
group in the max-perversity one.  For a complete edge metric, degree k
is infinite-dimensional exactly when k = j + (b+1)/2 hits a nonzero
fibre Betti number, and otherwise equals IH at perversity f + b/2 - k.

Weights are exact rationals end to end, and every answer is read in
integers.  With a = n/d in lowest terms, d > 0, the brackets above are
floor divisions:

    max:  mbar + n // d                    (f odd: floor a)
          mbar + (2n - d) // 2d + 1        (f even)
    min:  mlow - (-n // d)                 (f odd: ceil a)
          mlow - ((d - 2n) // 2d)          (f even)

so a query resolves its weight to two integer perversities, and so to
two truncation cutoffs c1 <= c2 of the space's rank table, without any
Fraction arithmetic, and its graded dimensions are one lookup in the
table's answers, ``RankTable.dims[c1, c2]``.  The complete-metric test
is in integers as well: j is an integer only for odd b, and then
j = k - (b + 1) // 2; a finite degree reads its IH dimension from the
same table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from edgehodge.stratified import EdgeSpaceModel, Perversity, middle_perversities


@dataclass(frozen=True)
class WeightedReport:
    """Graded dimensions for one weight and one extension."""

    weight: Fraction
    extension: str  # "max" | "min" | "minimal-hodge"
    dims: tuple[int, ...]
    perversity: Perversity


@dataclass(frozen=True)
class CompleteL2Answer:
    degree: int
    finite: bool
    dim: int | None
    perversity: Perversity | None

    @property
    def verdict(self) -> str:
        return f"Finite({self.dim})" if self.finite else "Infinite"


def _fraction(a) -> Fraction:
    return a if isinstance(a, Fraction) else Fraction(a)


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


def _report(space: EdgeSpaceModel, a: Fraction, ext: str, p_src: int,
            p_tgt: int) -> WeightedReport:
    """The report of ``ext`` at weight a, with perversity p_src: the ranks
    of IH^k_{p_src} -> IH^k_{p_tgt}, k = 0..n, read from the rank table's
    answers at their two cutoffs (the IH dimensions when p_src == p_tgt)."""
    dims = space.rank_table().dims[space.effective_cutoff(p_src),
                                   space.effective_cutoff(p_tgt)]
    return WeightedReport(a, ext, dims, Perversity(p_src))


def _weight_reports(space: EdgeSpaceModel, a: Fraction) -> tuple[WeightedReport, ...]:
    """The max, min and minimal-Hodge reports of the weight a."""
    p_max, p_min = _max_value(space.f, a), _min_value(space.f, a)
    return (_report(space, a, "max", p_max, p_max),
            _report(space, a, "min", p_min, p_min),
            _report(space, a, "minimal-hodge", p_min, p_max))


def max_perversity(f: int, a) -> Perversity:
    return Perversity(_max_value(f, _fraction(a)))


def min_perversity(f: int, a) -> Perversity:
    return Perversity(_min_value(f, _fraction(a)))


def weighted_derham_dims(space: EdgeSpaceModel, a, ext: str) -> WeightedReport:
    """Weighted de Rham dimensions for extension ``ext`` in {"max","min"}."""
    a = _fraction(a)
    if ext == "max":
        p = _max_value(space.f, a)
    elif ext == "min":
        p = _min_value(space.f, a)
    else:
        raise ValueError(f"extension must be 'max' or 'min', got {ext!r}")
    return _report(space, a, ext, p, p)


def minimal_hodge_dims(space: EdgeSpaceModel, a) -> WeightedReport:
    """Minimal Hodge dimensions: image ranks from the min-perversity
    group into the max-perversity group, degree by degree.  The min
    perversity is never below the max one, so its truncation sits
    inside the max one's."""
    a = _fraction(a)
    return _report(space, a, "minimal-hodge", _min_value(space.f, a), _max_value(space.f, a))


def complete_l2(space: EdgeSpaceModel, k: int) -> CompleteL2Answer:
    """Degree-k L2 Hodge cohomology verdict for a complete edge metric."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    f_betti = space.F.cohomology_dims()
    b = space.b
    # j = k - (b + 1)/2 is an integer only for odd b
    j = k - (b + 1) // 2
    if b % 2 == 1 and 0 <= j < len(f_betti) and f_betti[j] > 0:
        return CompleteL2Answer(k, False, None, None)
    p = Perversity(2 * (space.f - k) + b, 2)
    c = space.effective_cutoff(p)
    dims = space.rank_table().dims[c, c]
    return CompleteL2Answer(k, True, dims[k] if k < len(dims) else 0, p)
