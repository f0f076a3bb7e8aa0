"""Discrete Hodge Laplacians on periodic-grid fibres.

Cochain-based discretization (combinatorial exterior calculus with
diagonal metric weights): the incidence matrices are integers, so
d∘d = 0 holds exactly and harmonic counts match combinatorial Betti
numbers exactly; spectral accuracy is second order in the mesh.  A
circle with n segments and circumference L carries vertex weight L/n
and edge weight n/L; products are weighted tensor products.

Every fibre is a weighted product of circles, so its Laplacian is a
Künneth sum: on each (i, q - i) block it is Δ_a ⊗ 1 + 1 ⊗ Δ_b, and the
degree-q eigenvalues are sums of ``circle_mode_eigenvalue`` values.
``spectrum_for_predicates`` builds the spectrum that way.  The dense
path (``laplacian_matrix``, ``fibre_spectrum``) solves the symmetrized
form W^{1/2} Δ W^{-1/2}, which is symmetric positive semidefinite; it
is the oracle for the closed form and for the mesh-convergence checks.
The metric weights W are numpy arrays built on first use, for that
oracle only; the closed form needs no numpy.
"""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass
from functools import cached_property

from edgehodge.cochain import CochainComplex, QMatrix, tensor
from edgehodge.errors import EigensolverError, UnderResolvedSpectrumError
from edgehodge.spectral import FibreSpectrum

RESIDUAL_TOL = 1e-9
ZERO_MODE_TOL = 1e-8


@dataclass
class DiscreteFibre:
    kind: str
    sizes: tuple[int, ...]
    lengths: tuple[float, ...]
    complex: CochainComplex

    def dim(self, q: int) -> int:
        return self.complex.dim(q)

    @property
    def top_degree(self) -> int:
        return self.complex.top_degree

    @cached_property
    def weights(self) -> tuple:
        """Per-degree diagonal inner products (numpy arrays): tensor products
        of the circle factors' weights, in the blocks of ``tensor``."""
        import numpy as np
        weights = [np.ones(1)]
        for n, length in zip(self.sizes, self.lengths):
            h = length / n
            circle = (np.full(n, h), np.full(n, 1.0 / h))
            weights = [np.concatenate([np.kron(weights[i], circle[q - i])
                                       for i in (q - 1, q) if 0 <= i < len(weights)])
                       for q in range(len(weights) + 1)]
        return tuple(weights)

    def d_dense(self, q: int):
        import numpy as np
        mat = self.complex.d_at(q)
        out = np.zeros((mat.rows, mat.cols))
        for i, row in enumerate(mat.sparse_rows):
            for j, v in row.items():
                out[i, j] = v
        return out

    def weight(self, q: int):
        import numpy as np
        return self.weights[q] if 0 <= q <= self.top_degree else np.zeros(0)


def _circle_fibre(n: int, length: float) -> DiscreteFibre:
    if n < 3:
        raise ValueError("circle needs at least 3 segments")
    if length <= 0:
        raise ValueError("circumference must be positive")
    d0 = [[0] * n for _ in range(n)]
    for e in range(n):
        d0[e][e] = -1
        d0[e][(e + 1) % n] = 1
    cx = CochainComplex((n, n), [QMatrix(n, n, d0)])
    return DiscreteFibre("circle", (n,), (length,), cx)


def _product_fibre(a: DiscreteFibre, b: DiscreteFibre, kind: str) -> DiscreteFibre:
    return DiscreteFibre(kind, a.sizes + b.sizes, a.lengths + b.lengths,
                         tensor(a.complex, b.complex))


def build_fibre(kind: str, sizes, scale=None) -> DiscreteFibre:
    """Build a discrete fibre.

    ``kind``: "circle", "torus", or "product" (of circles).  ``sizes``
    is one grid size per circle factor (>= 3 each).  ``scale`` gives
    the circumference of each factor (scalar or per-factor sequence;
    default 2*pi), exposing the quasi-isometry freedom used to move
    eigenvalues out of critical windows.
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
        return _circle_fibre(sizes[0], lengths[0])
    if kind in ("torus", "product"):
        if kind == "torus" and len(sizes) != 2:
            raise ValueError("torus takes two grid sizes")
        if len(sizes) < 2:
            raise ValueError("product needs at least two circle factors")
        fib = _circle_fibre(sizes[0], lengths[0])
        for s, length in zip(sizes[1:], lengths[1:]):
            fib = _product_fibre(fib, _circle_fibre(s, length), kind)
        return fib
    raise ValueError(f"unknown fibre kind {kind!r}")


def laplacian_matrix(fibre: DiscreteFibre, q: int):
    """Symmetrized weighted Hodge Laplacian in degree q, a numpy array."""
    import numpy as np
    if not (0 <= q <= fibre.top_degree):
        raise ValueError("degree out of range")
    n = fibre.dim(q)
    w = fibre.weight(q)
    s = np.zeros((n, n))
    wq_isqrt = 1.0 / np.sqrt(w)
    wq_sqrt = np.sqrt(w)
    d_up = fibre.d_dense(q)
    if d_up.shape[0]:
        a = d_up * wq_isqrt[None, :]
        s += a.T @ (fibre.weight(q + 1)[:, None] * a)
    d_dn = fibre.d_dense(q - 1)
    if d_dn.shape[1]:
        b = (wq_sqrt[:, None] * d_dn) / np.sqrt(fibre.weight(q - 1))[None, :]
        s += b @ b.T
    return s


@dataclass
class SpectrumResult:
    degree: int
    eigenvalues: tuple[float, ...]
    harmonic_dim: int
    residual_max: float


def _solve_degree(fibre: DiscreteFibre, q: int, check_count: int,
                  tol: float) -> tuple:
    """Full ascending spectrum plus (norm, zero count, max residual)."""
    import numpy as np
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
    zeros = int(np.sum(vals < tol * max(norm, 1.0))) if n else 0
    return vals, norm, zeros, res


def fibre_spectrum(fibre: DiscreteFibre, q: int, count: int,
                   tol: float = ZERO_MODE_TOL) -> SpectrumResult:
    """Lowest ``count`` eigenvalues of the degree-q weighted Laplacian.

    The eigensolve must meet the residual contract
    ||A v - lambda v|| <= 1e-9 ||A|| for every reported pair; failure
    raises rather than silently truncating.
    """
    n = fibre.dim(q)
    if count > n:
        raise ValueError(f"requested {count} eigenvalues of a {n}-dim space")
    vals, _norm, zeros, res = _solve_degree(fibre, q, count, tol)
    return SpectrumResult(q, tuple(float(v) for v in vals[:count]),
                          zeros, float(res))


def _product_eigenvalues(fibre: DiscreteFibre) -> list[list[float]]:
    """Full per-degree spectrum of a product-of-circles fibre, ascending.

    Künneth: each circle factor contributes its n mode eigenvalues to
    both its degree-0 and its degree-1 part, so a degree-q eigenvalue is
    a sum over the factors, one mode each, with q factors in degree 1.
    """
    levels = [[0.0]]
    for n, length in zip(fibre.sizes, fibre.lengths):
        circ = [circle_mode_eigenvalue(n, length, m) for m in range(n)]
        sums = [[v + c for v in lv for c in circ] for lv in levels]
        # degree q collects the sums whose circle mode sits in degree 0
        # (from degree q) or in degree 1 (from degree q - 1)
        levels = [[v for s in sums[max(q - 1, 0):q + 1] for v in s]
                  for q in range(len(sums) + 1)]
    return [sorted(lv) for lv in levels]


def spectrum_for_predicates(fibre: DiscreteFibre, count: int = 8,
                            tol: float = ZERO_MODE_TOL) -> FibreSpectrum:
    """Per-degree spectrum, from the closed form, with zero modes snapped
    to exact 0 and the lowest ``count`` nonzero eigenvalues after them.

    Values below ``tol * max(norm, 1)`` count as zero modes, where norm
    is the degree's largest eigenvalue.  The snapped multiplicity must
    match the exact Betti number from the rational complex; a mismatch
    means the grid is under-resolved and is an error, never a warning.
    """
    betti = fibre.complex.cohomology_dims()
    levels = []
    for q, vals in enumerate(_product_eigenvalues(fibre)):
        zeros = bisect.bisect_left(vals, tol * max(vals[-1], 1.0))
        if zeros != betti[q]:
            raise UnderResolvedSpectrumError(
                f"degree {q}: {zeros} zero modes at tolerance, Betti is {betti[q]}"
            )
        pairs: list[tuple] = []
        if zeros:
            pairs.append((0, zeros))
        for v in vals[zeros:zeros + count]:
            pairs.append((v, 1))
        levels.append(pairs)
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
