"""Discrete Hodge Laplacians on periodic-grid fibres.

Cochain-based discretization (combinatorial exterior calculus with
diagonal metric weights): the incidence matrices are integers, so
d∘d = 0 holds exactly and harmonic counts match combinatorial Betti
numbers exactly; spectral accuracy is second order in the mesh.  A
circle with n segments and circumference L carries vertex weight L/n
and edge weight n/L; products are weighted tensor products.

Every fibre is a weighted product of k circles, so its Laplacian is
the Kronecker sum of the circles' Laplacians: an eigenvalue is a sum
of ``circle_mode_eigenvalue`` values, one mode per factor, and in
degree q each such sum occurs C(k, q) times (once for each choice of
the q factors whose mode sits in degree 1).  The only zero sum is the
one of all zero modes, so degree q has exactly C(k, q) zero modes, the
Betti numbers of the k-torus, with no tolerance involved.
``spectrum_for_predicates`` builds the spectrum that way.  The circle's
own modes rest on ``certify_circle_spectrum``, which checks in integers
that dᵀd of the n-cycle has the eigenvalues 4 sin²(πm/n).
``laplacian_matrix`` is the symmetrized form W^{1/2} Δ W^{-1/2} as
dense float rows, for ``verify`` and the tests; the metric weights W
and the product cochain complex (``tensor`` folded over the circles)
are built on first use, and the closed form needs neither.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property, reduce

from edgehodge.cochain import CochainComplex, QMatrix, _sparse, tensor
from edgehodge.spectral import FibreSpectrum

# most mode tuples (the product of the grid sizes) a fibre may have:
# its spectrum forms and sorts one eigenvalue sum per tuple
MAX_MODE_TUPLES = 10 ** 6


@dataclass
class DiscreteFibre:
    kind: str
    sizes: tuple[int, ...]
    lengths: tuple[float, ...]

    @cached_property
    def complex(self) -> CochainComplex:
        """The rational cochain complex, ``tensor`` of the circle factors'."""
        return reduce(tensor, map(_circle_complex, self.sizes))

    def dim(self, q: int) -> int:
        return self.complex.dim(q)

    @property
    def top_degree(self) -> int:
        return len(self.sizes)

    @cached_property
    def weights(self) -> tuple[tuple[float, ...], ...]:
        """Per-degree diagonal inner products: tensor products of the
        circle factors' weights, in the blocks of ``tensor``."""
        weights = [(1.0,)]
        for n, length in zip(self.sizes, self.lengths):
            h = length / n
            circle = ((h,) * n, (1.0 / h,) * n)
            weights = [tuple(x * y for i in (q - 1, q) if 0 <= i < len(weights)
                             for x in weights[i] for y in circle[q - i])
                       for q in range(len(weights) + 1)]
        return tuple(weights)


def _circle_complex(n: int) -> CochainComplex:
    """The n-cycle: edge e runs from vertex e to vertex e + 1 mod n, each
    row's columns in ascending order, as ``QMatrix`` stores them."""
    rows = tuple({e: -1, e + 1: 1} for e in range(n - 1)) + ({0: 1, n - 1: -1},)
    return CochainComplex((n, n), [_sparse(n, n, rows)])


def _circle_fibre(n: int, length: float) -> DiscreteFibre:
    if n < 3:
        raise ValueError("circle needs at least 3 segments")
    if length <= 0:
        raise ValueError("circumference must be positive")
    return DiscreteFibre("circle", (n,), (length,))


def _product_fibre(a: DiscreteFibre, b: DiscreteFibre, kind: str) -> DiscreteFibre:
    return DiscreteFibre(kind, a.sizes + b.sizes, a.lengths + b.lengths)


def build_fibre(kind: str, sizes, scale=None) -> DiscreteFibre:
    """Build a discrete fibre.

    ``kind``: "circle", "torus", or "product" (of circles).  ``sizes``
    is one grid size per circle factor (>= 3 each).  ``scale`` gives
    the circumference of each factor (scalar or per-factor sequence;
    default 2*pi), exposing the quasi-isometry freedom used to move
    eigenvalues out of critical windows.  A grid with more than
    MAX_MODE_TUPLES mode tuples is refused with ValueError.
    """
    if isinstance(sizes, int):
        sizes = (sizes,)
    sizes = tuple(int(s) for s in sizes)
    if scale is None:
        lengths = tuple(2 * math.pi for _ in sizes)
    elif isinstance(scale, (int, float)):
        lengths = tuple(float(scale) for _ in sizes)
    else:
        lengths = tuple(float(x) for x in scale)
    if len(lengths) != len(sizes):
        raise ValueError("one length per circle factor required")

    if kind == "circle":
        if len(sizes) != 1:
            raise ValueError("circle takes one grid size")
    elif kind in ("torus", "product"):
        if kind == "torus" and len(sizes) != 2:
            raise ValueError("torus takes two grid sizes")
        if len(sizes) < 2:
            raise ValueError("product needs at least two circle factors")
    else:
        raise ValueError(f"unknown fibre kind {kind!r}")
    fib = _circle_fibre(sizes[0], lengths[0])
    for s, length in zip(sizes[1:], lengths[1:]):
        fib = _product_fibre(fib, _circle_fibre(s, length), kind)
    tuples = math.prod(sizes)
    if tuples > MAX_MODE_TUPLES:
        raise ValueError(f"grid sizes {','.join(map(str, sizes))} give {tuples} "
                         f"mode tuples, more than the {MAX_MODE_TUPLES} allowed")
    return fib


def laplacian_matrix(fibre: DiscreteFibre, q: int) -> list[list[float]]:
    """Symmetrized weighted Hodge Laplacian in degree q, as dense float
    rows: the sum over the rows e of d_q of w_(q+1)[e] a aᵀ, with
    a = W_q^(-1/2) d_q[e], and over the columns v of d_(q-1) of b bᵀ,
    with b = W_q^(1/2) d_(q-1)[:, v] / w_(q-1)[v]^(1/2).  Each product
    is added to (i, j) and (j, i) alike, so the matrix is exactly
    symmetric."""
    if not (0 <= q <= fibre.top_degree):
        raise ValueError("degree out of range")
    w = fibre.weights
    s = [[0.0] * fibre.dim(q) for _ in range(fibre.dim(q))]

    def add_outer(vec, factor):
        for i, x in vec:
            row = s[i]
            for j, y in vec:
                row[j] += x * y * factor

    isqrt = [1.0 / math.sqrt(x) for x in w[q]]
    for e, row in enumerate(fibre.complex.d_at(q).sparse_rows):
        add_outer([(j, v * isqrt[j]) for j, v in row.items()], w[q + 1][e])
    sqrt = [math.sqrt(x) for x in w[q]]
    for v, col in enumerate(fibre.complex.d_at(q - 1).transpose().sparse_rows):
        root = math.sqrt(w[q - 1][v])
        add_outer([(i, sqrt[i] * x / root) for i, x in col.items()], 1.0)
    return s


def certify_circle_spectrum(dtd: QMatrix) -> bool:
    """True iff the n x n matrix ``dtd`` has the eigenvalues
    4 sin²(πm/n), m = 0..n-1, of dᵀd on the n-cycle, decided exactly.

    On the n-cycle dᵀd is the circulant 2 - P - P⁻¹ in the cyclic shift
    P, with (2 - z - 1/z)^j = Σ_t (-1)^t C(2j, j+t) z^t, and tr(P^t) is
    n when n divides t and 0 otherwise.  So its power sums are
    tr((dᵀd)^j) = n Σ_(t ≡ 0 mod n) (-1)^t C(2j, j+t); the traces of the
    powers of ``dtd`` are compared with these for j = 1..n, and by
    Newton's identities the first n power sums fix the characteristic
    polynomial.  Only the powers M^i up to ⌈n/2⌉ are formed.
    """
    n = dtd.rows
    if dtd.cols != n:
        return False
    powers = [QMatrix.identity(n), dtd]
    for j in range(1, n + 1):
        if len(powers) == (j + 1) // 2:
            powers.append(powers[-1] @ dtd)
        want = n * sum((-1) ** abs(t) * math.comb(2 * j, j + t)
                       for t in range(-(j // n) * n, j + 1, n))
        # tr(M^j) = tr(AB) = Σ_ij A_ij B_ji with A = M^(j//2), B = M^⌈j/2⌉
        right = powers[(j + 1) // 2].sparse_rows
        if want != sum(x * right[c].get(r, 0) for r, row in enumerate(
                powers[j // 2].sparse_rows) for c, x in row.items()):
            return False
    return True


def spectrum_for_predicates(fibre: DiscreteFibre, count: int = 8) -> FibreSpectrum:
    """Per-degree spectrum from the closed form: the C(k, q) zero modes
    of degree q, stored as exact 0, then its lowest ``count`` nonzero
    eigenvalues.

    Each mode tuple's sum is formed once, in factor order; degree q
    lists every nonzero sum C(k, q) times.  No product complex is built.
    """
    sums = [0.0]
    for n, length in zip(fibre.sizes, fibre.lengths):
        circ = [circle_mode_eigenvalue(n, length, m) for m in range(n)]
        sums = [v + c for v in sums for c in circ]
    sums.sort()
    k = fibre.top_degree
    betti = tuple(math.comb(k, q) for q in range(k + 1))
    levels = []
    for mult in betti:
        # sums[0] is the all-zero-modes sum, exactly 0.0; each later sum
        # fills mult slots, so ceil(count / mult) of them fill count
        head = sums[1:1 + -(-count // mult)]
        nonzero = [(v, 1) for v in head for _ in range(mult)][:count]
        levels.append([(0, mult), *nonzero])
    return FibreSpectrum(levels, "discrete", betti=betti)


def export_spectrum_csv(path: str, spec: FibreSpectrum) -> None:
    """Write (degree, index, eigenvalue) rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["degree", "index", "eigenvalue"])
        for q in spec.degrees():
            idx = 0
            for v, mult in spec.eigenvalues(q):
                for _ in range(mult):
                    writer.writerow([q, idx, str(v)])
                    idx += 1


def circle_mode_eigenvalue(n: int, length: float, m: int) -> float:
    """Exact eigenvalue of the discrete circle Laplacian for mode m:
    (2n/L sin(pi m / n))^2; converges to (2 pi m / L)^2 at O(n^-2).
    Modes m and n - m are evaluated alike, so the pair is bit-equal."""
    m = min(m % n, -m % n)
    return (2.0 * n / length * math.sin(math.pi * m / n)) ** 2
