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
``spectrum_for_predicates`` builds the spectrum that way.  The dense
path (``laplacian_matrix``, ``fibre_spectrum``) solves the symmetrized
form W^{1/2} Δ W^{-1/2}, which is symmetric positive semidefinite, and
counts harmonic modes below a tolerance; it is the oracle for the
closed form and for the mesh-convergence checks.  The metric weights W
are numpy arrays and the product cochain complex (``tensor`` folded
over the circles) is built on first use, for that oracle, ``verify``
and the tests only; the closed form needs neither.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property, reduce

from edgehodge.cochain import CochainComplex, QMatrix, tensor
from edgehodge.errors import EigensolverError
from edgehodge.spectral import FibreSpectrum

RESIDUAL_TOL = 1e-9
ZERO_MODE_TOL = 1e-8


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


def _circle_complex(n: int) -> CochainComplex:
    d0 = [[0] * n for _ in range(n)]
    for e in range(n):
        d0[e][e] = -1
        d0[e][(e + 1) % n] = 1
    return CochainComplex((n, n), [QMatrix(n, n, d0)])


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
