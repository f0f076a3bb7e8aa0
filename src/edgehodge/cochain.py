"""Exact rational linear algebra over finite cochain complexes.

Everything here is computed over the rationals with exact arithmetic:
Betti numbers are dimension identities, so floating point ranks are
deliberately not offered.  Complexes are graded in degrees 0..top with
explicit matrices between adjacent degrees; empty degrees have
dimension 0 and the differentials off the ends are zero matrices of the
appropriate shapes.

Matrices are stored sparsely.  ``QMatrix.sparse_rows`` holds one
``{column: value}`` dict per row with zeros omitted; values are Python
ints wherever they are integral, and ``Fraction`` appears only where
an elimination or a reduction produces true rationals.  The
matrices of the engine are over 98% zero, so every operation works on
the nonzeros only.  ``QMatrix.entries`` is a dense row-major view built
on demand, for tests and oracles; nothing in the engine reads it.

Every rank, kernel basis and Betti number comes from one elimination,
``elim.cancel``, which cancels pairs of cells joined by a nonzero entry
with a rank-one Schur update each time.  ``reduce_complex`` runs it on
each differential in turn until every differential is zero, and the
``Reduction`` it returns records the steps.  Its survivors count the
Betti numbers; replaying the steps backwards on their rows turns each
survivor into a cocycle representative (``Reduction.representatives``,
``cohomology_inclusion``), replaying them backwards on their columns
gives the projection onto cohomology (``Reduction.projection``,
``cohomology_projection``), and replaying them forwards on the rows of a
matrix L gives L times the representatives without forming them
(``Reduction.on_representatives``).  A complex keeps its reduction
(``CochainComplex.reduction``), so its Betti numbers, its inclusion, its
projection and the replays share one elimination.  ``kernel_basis`` is
the degree-0 inclusion of the two-term complex of one matrix.  The rank
of a single matrix (``QMatrix.rank``, ``induced_map_rank``) is its
number of pivots.

The checks a model load runs, d∘d = 0 (``CochainComplex.verify``) and
the chain-map property, accumulate one residual row at a time and stop
at the first nonzero one (``_rows_agree``); they never build the
products they compare.  A model holds no Y = B ⊗ F, so its restriction
is checked by ``tensor_target_commutes``, which reads each row of d_Y
from the factors' rows (``_tensor_row_groups``) as it reaches it.  A Y
that a model record carries is compared with the product row by row in
the same way by ``is_tensor`` (at once when ``tensor`` built it from
the same two factors), and the restriction is then checked against its
parsed rows (``ComplexMap.commutes``).

Values are immutable after construction (the only mutation is internal
memoisation of ranks, reductions, the d∘d verdict and the factors a
``tensor`` was built from), and every operation is a pure function.
The row dicts are shared between matrices and are never modified in
place.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from edgehodge import elim
from edgehodge.errors import (
    ChainMapError,
    ModelFormatError,
    ShapeMismatchError,
    UnverifiedComplexError,
)

Rational = Fraction | int
SparseRow = dict[int, Rational]


def _exact(x) -> Rational:
    """Normalise an exact rational: integral values become ints."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    if isinstance(x, str):
        return _exact(Fraction(x))
    raise TypeError(f"not an exact rational: {x!r}")


def _sparse(rows: int, cols: int, sparse_rows: tuple[SparseRow, ...]) -> "QMatrix":
    """Wrap trusted sparse rows (right length, normalised, no zeros)."""
    m = object.__new__(QMatrix)
    m.rows = rows
    m.cols = cols
    m.sparse_rows = sparse_rows
    m._rank = None
    return m


class QMatrix:
    """Immutable sparse matrix of exact rationals.

    Construct from dense rows; ``sparse_rows`` is the stored form.
    """

    __slots__ = ("rows", "cols", "sparse_rows", "_rank")

    def __init__(self, rows: int, cols: int, entries: Iterable[Iterable[Rational]]):
        self.rows = rows
        self.cols = cols
        out = []
        for row in entries:
            vals = [_exact(x) for x in row]
            if len(vals) != cols:
                raise ShapeMismatchError(f"entries do not form a {rows}x{cols} matrix")
            out.append({j: v for j, v in enumerate(vals) if v})
        if len(out) != rows:
            raise ShapeMismatchError(f"entries do not form a {rows}x{cols} matrix")
        self.sparse_rows = tuple(out)
        self._rank = None

    @staticmethod
    def zeros(rows: int, cols: int) -> "QMatrix":
        return _sparse(rows, cols, ({},) * rows)

    @staticmethod
    def identity(n: int) -> "QMatrix":
        return _sparse(n, n, tuple({i: 1} for i in range(n)))

    @property
    def entries(self) -> tuple[tuple[Rational, ...], ...]:
        """Dense row-major view, rebuilt on every access."""
        out = []
        for r in self.sparse_rows:
            row = [0] * self.cols
            for c, v in r.items():
                row[c] = v
            out.append(tuple(row))
        return tuple(out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.sparse_rows == other.sparse_rows
        )

    def __hash__(self):
        return hash((self.rows, self.cols,
                     tuple(frozenset(r.items()) for r in self.sparse_rows)))

    def __repr__(self):
        return f"QMatrix({self.rows}x{self.cols})"

    def is_zero(self) -> bool:
        return not any(self.sparse_rows)

    def __neg__(self) -> "QMatrix":
        return _sparse(self.rows, self.cols,
                       tuple({c: -v for c, v in r.items()} for r in self.sparse_rows))

    def __add__(self, other: "QMatrix") -> "QMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatchError("matrix addition shape mismatch")
        out = []
        for r1, r2 in zip(self.sparse_rows, other.sparse_rows):
            acc = dict(r1)
            for c, v in r2.items():
                w = _exact(acc.get(c, 0) + v)
                if w:
                    acc[c] = w
                else:
                    del acc[c]
            out.append(acc)
        return _sparse(self.rows, self.cols, tuple(out))

    def scale(self, c: Rational) -> "QMatrix":
        c = _exact(c)
        if not c:
            return QMatrix.zeros(self.rows, self.cols)
        return _sparse(self.rows, self.cols, tuple(
            {j: _exact(c * v) for j, v in r.items()} for r in self.sparse_rows))

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise ShapeMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        orows = other.sparse_rows
        out = []
        for row in self.sparse_rows:
            acc: SparseRow = {}
            for k, a in row.items():
                for j, b in orows[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            out.append({j: _exact(v) for j, v in acc.items() if v})
        return _sparse(self.rows, other.cols, tuple(out))

    def transpose(self) -> "QMatrix":
        out: list[SparseRow] = [{} for _ in range(self.cols)]
        for i, r in enumerate(self.sparse_rows):
            for c, v in r.items():
                out[c][i] = v
        return _sparse(self.cols, self.rows, tuple(out))

    def kron(self, other: "QMatrix") -> "QMatrix":
        bc = other.cols
        bitems = [tuple(r.items()) for r in other.sparse_rows]
        out = []
        for arow in self.sparse_rows:
            aitems = [(ca * bc, a) for ca, a in arow.items()]
            for brow in bitems:
                out.append({off + cb: _exact(a * b) for off, a in aitems for cb, b in brow})
        return _sparse(self.rows * other.rows, self.cols * bc, tuple(out))

    def rank(self) -> int:
        if self._rank is None:
            if self.rows == 0 or self.cols == 0:
                self._rank = 0
            else:
                self._rank = elim.rank_sparse([dict(r) for r in self.sparse_rows])
        return self._rank


def _rows_agree(a: QMatrix, b: QMatrix, c: QMatrix, d: QMatrix) -> bool:
    """True iff A·B = C·D, with neither product built.

    Row i of A·B - C·D is accumulated in one dict, Gustavson's row-wise
    product (ACM TOMS 1978), and the test stops at the first row with a
    nonzero entry.  An entry whose partial sums cancel stays in the dict
    as a zero, so nothing is normalised or deleted on the way.
    """
    if a.cols != b.rows or c.cols != d.rows or (a.rows, b.cols) != (c.rows, d.cols):
        raise ShapeMismatchError(
            f"cannot compare {a.rows}x{a.cols} by {b.rows}x{b.cols} "
            f"with {c.rows}x{c.cols} by {d.rows}x{d.cols}")
    brows, drows = b.sparse_rows, d.sparse_rows
    for arow, crow in zip(a.sparse_rows, c.sparse_rows):
        acc: SparseRow = {}
        get = acc.get
        for k, x in arow.items():
            for j, y in brows[k].items():
                acc[j] = get(j, 0) + x * y
        for k, x in crow.items():
            for j, y in drows[k].items():
                acc[j] = get(j, 0) - x * y
        if any(acc.values()):
            return False
    return True


def block_matrix(blocks: Sequence[Sequence[QMatrix | None]],
                 row_dims: Sequence[int], col_dims: Sequence[int]) -> QMatrix:
    """Assemble a block matrix; None blocks are zero."""
    out: list[SparseRow] = [{} for _ in range(sum(row_dims))]
    r0 = 0
    for bi, rd in enumerate(row_dims):
        c0 = 0
        for bj, cd in enumerate(col_dims):
            blk = blocks[bi][bj]
            if blk is not None:
                if blk.rows != rd or blk.cols != cd:
                    raise ShapeMismatchError(
                        f"block ({bi},{bj}) is {blk.rows}x{blk.cols}, wanted {rd}x{cd}"
                    )
                for i, row in enumerate(blk.sparse_rows):
                    if row:
                        out[r0 + i].update(zip(map(c0.__add__, row), row.values()))
            c0 += cd
        r0 += rd
    return _sparse(len(out), sum(col_dims), tuple(out))


def kernel_basis(mat: QMatrix) -> QMatrix:
    """Matrix whose columns form a basis of the null space of ``mat``:
    the degree-0 cocycles of the two-term complex of ``mat``, so it is
    the identity on the coordinates that ``cancel`` left unpaired."""
    return _kernel(mat)[0]


def _kernel(mat: QMatrix) -> tuple[QMatrix, tuple[int, ...]]:
    """``kernel_basis`` of ``mat`` and the unpaired coordinates on which
    it is the identity."""
    red = reduce_complex(CochainComplex((mat.cols, mat.rows), [mat]))
    return red.representatives(0, mat.cols), red.survivors[0]


class Reduction(NamedTuple):
    """A complex cancelled down to zero differentials (``reduce_complex``).

    ``survivors[k]`` are the degree-k cells left, one per Betti number;
    ``steps[k]`` are the ``elim.cancel`` steps (b, a, u⁻¹, row b,
    column a) of d_k, each cancelling a ∈ C^k against b ∈ C^(k+1).
    Replayed backwards, their rows give cocycle representatives
    (``representatives``) and their columns a projection onto cohomology
    (``projection``); replayed forwards on the rows of a matrix they give
    its product with the representatives (``on_representatives``), as
    the rank tables of ``stratified`` read ρ' = p_Y ρ i_M.
    """

    survivors: tuple[tuple[int, ...], ...]
    steps: tuple[tuple[tuple[int, int, Rational, SparseRow, SparseRow], ...], ...]

    def representatives(self, k: int, n: int) -> QMatrix:
        """n × betti_k matrix of one cocycle per degree-k survivor, whose
        classes form a basis of H^k: e_x pushed through the inclusion of
        each cancellation of d_k, last first, which sets
        v[a] = -u⁻¹⟨row b, v⟩.  It is the identity on the survivors and
        zero off them and the cells a."""
        return self._pushed_back(k, n, [(a, uinv, row) for _, a, uinv, row, _
                                        in reversed(self.steps[k])]).transpose()

    def projection(self, k: int, n: int) -> QMatrix:
        """betti_k × n matrix p_k of a chain map onto cohomology: row x is
        e_x pushed through the projection of each cancellation of d_(k-1),
        last first, which sets v[b] = -u⁻¹⟨column a, v⟩, so p_k d_(k-1) = 0.
        It is the identity on the survivors and zero off them and the
        cells b, so p_k @ representatives(k, n) is the identity."""
        return self._pushed_back(k, n, [(b, uinv, col) for b, _, uinv, _, col
                                        in reversed(self.steps[k - 1])] if k else ())

    def _pushed_back(self, k: int, n: int, steps) -> QMatrix:
        """Rows e_x, x a degree-k survivor, pushed through ``steps`` (cell,
        u⁻¹, vector) in the order given, each setting v[cell] = -u⁻¹⟨vector, v⟩."""
        out = []
        for x in self.survivors[k]:
            v: SparseRow = {x: 1}
            for cell, uinv, vec in steps:
                s = 0
                for j, w in vec.items():
                    y = v.get(j)
                    if y is not None:
                        s += w * y
                if s:
                    v[cell] = _exact(-uinv * s)
            out.append(v)
        return _sparse(len(out), n, tuple(out))

    def on_representatives(self, k: int, rows: Iterable[SparseRow]) -> list[SparseRow]:
        """The rows of L @ representatives(k, n), for the matrix L over
        C^k given by its sparse ``rows``, without the representatives.

        The inclusion is T_1 ⋯ T_m on the survivors, with T_s the step
        v[a] := -u⁻¹⟨row b, v⟩ of ``representatives``, so a row ℓ of L
        passes through the steps first to last: ℓ T_s clears ℓ[a] and
        subtracts ℓ[a]·u⁻¹·(row b).  No step's row holds the column of
        an earlier step, so what is left lies on the survivors and on the
        cells paired downwards, where every representative is zero; the
        survivors' entries are row ℓ of L i.
        """
        steps = self.steps[k]
        column = {x: j for j, x in enumerate(self.survivors[k])}
        out = []
        for r in rows:
            v = dict(r)
            for _, a, uinv, row, _ in steps:
                g = v.pop(a, None)
                if g is not None:
                    g *= uinv
                    for j, w in row.items():
                        y = v.get(j, 0) - g * w
                        if y:
                            v[j] = y
                        else:
                            del v[j]
            out.append({column[x]: _exact(y) for x, y in v.items() if x in column})
        return out


def reduce_complex(c: "CochainComplex") -> Reduction:
    """Cancel pairs of cells until every differential is zero.

    Degree by degree, ``elim.cancel`` reduces d_k with the columns of
    cells already paired in degree k removed.  Each step (b, a, u⁻¹,
    row b, column a) is the rank-one Schur update d_k - γu⁻¹δ, with γ
    column a and δ row b, after which row b and column a leave d_k, row a
    leaves d_(k-1) (zero by then) and column b leaves d_(k+1) (dropped
    when d_(k+1) is reduced).  Each step is a chain homotopy equivalence
    (Kaczynski, Mrozek & Ślusarek 1998) with its inclusion and projection
    (Sköldberg, "Morse theory from an algebraic viewpoint", 2006), so the
    survivors count the Betti numbers and the recorded steps give both
    maps on demand (``Reduction``).  ``CochainComplex.reduction`` runs it
    once per complex and keeps the result.
    """
    if not c.verify():
        raise UnverifiedComplexError("d∘d != 0; refusing to compute cohomology")
    paired: list[set[int]] = [set() for _ in c.dims]
    steps: list[tuple] = [()] * len(c.dims)
    for k, d in enumerate(c.d):
        gone = paired[k]
        steps[k] = tuple(elim.cancel([
            {j: v for j, v in r.items() if j not in gone} if gone else dict(r)
            for r in d.sparse_rows]))
        for b, a, _, _, _ in steps[k]:
            gone.add(a)
            paired[k + 1].add(b)
    survivors = tuple(tuple(x for x in range(n) if x not in paired[k])
                      for k, n in enumerate(c.dims))
    return Reduction(survivors, tuple(steps))


class CochainComplex:
    """Finite cochain complex over the rationals.

    ``dims[k]`` is the dimension in degree k and ``d[k]`` maps degree k
    to degree k+1.  A complex with empty ``dims`` is the zero complex.
    """

    __slots__ = ("dims", "d", "_reduction", "_verified", "_factors")

    def __init__(self, dims: Sequence[int], d: Sequence[QMatrix]):
        self.dims = tuple(int(x) for x in dims)
        self.d = tuple(d)
        if self.dims and len(self.d) != len(self.dims) - 1:
            raise ShapeMismatchError(
                f"{len(self.dims)} degrees need {len(self.dims) - 1} differentials, got {len(self.d)}"
            )
        if not self.dims and self.d:
            raise ShapeMismatchError("zero complex cannot carry differentials")
        for k, mat in enumerate(self.d):
            if mat.cols != self.dims[k] or mat.rows != self.dims[k + 1]:
                raise ShapeMismatchError(
                    f"d[{k}] is {mat.rows}x{mat.cols}, expected {self.dims[k+1]}x{self.dims[k]}"
                )
        self._reduction = None
        self._verified = None
        self._factors = None

    @property
    def top_degree(self) -> int:
        return len(self.dims) - 1

    def dim(self, k: int) -> int:
        if 0 <= k < len(self.dims):
            return self.dims[k]
        return 0

    def d_at(self, k: int) -> QMatrix:
        """Differential out of degree k, zero-extended off the ends."""
        if 0 <= k < len(self.d):
            return self.d[k]
        return QMatrix.zeros(self.dim(k + 1), self.dim(k))

    def verify(self) -> bool:
        """True iff every composite d_(k+1) d_k is zero, tested row by row
        (``_rows_agree`` against the zero product) without building it."""
        if self._verified is None:
            self._verified = all(
                _rows_agree(d1, d0, QMatrix.zeros(d1.rows, 0), QMatrix.zeros(0, d0.cols))
                for d0, d1 in zip(self.d, self.d[1:])
            )
        return self._verified

    def reduction(self) -> Reduction:
        """``reduce_complex`` of this complex, run on the first call and
        kept: the Betti numbers, both cohomology maps and the rank
        tables of ``stratified`` share it."""
        if self._reduction is None:
            self._reduction = reduce_complex(self)
        return self._reduction

    def cohomology_dims(self) -> tuple[int, ...]:
        """Betti numbers, counted by the survivors of the reduction."""
        return tuple(map(len, self.reduction().survivors))

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * n for k, n in enumerate(self.dims))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CochainComplex)
            and self.dims == other.dims
            and self.d == other.d
        )

    def __hash__(self):
        return hash((self.dims, self.d))

    def __repr__(self):
        return f"CochainComplex(dims={self.dims})"


ZERO_COMPLEX = CochainComplex((), ())


def cohomology_dims(c: CochainComplex) -> tuple[int, ...]:
    """Graded dimensions of ker d / im d."""
    return c.cohomology_dims()


class ComplexMap:
    """Degreewise linear map commuting with the differentials."""

    __slots__ = ("source", "target", "maps")

    def __init__(self, source: CochainComplex, target: CochainComplex,
                 maps: Sequence[QMatrix], check: bool = True):
        self.source = source
        self.target = target
        self.maps = tuple(maps)
        check_map_shapes(self.maps, source.dims, target.dims)
        if check and not self.commutes():
            raise ChainMapError("maps do not commute with the differentials")

    def at(self, k: int) -> QMatrix:
        if 0 <= k < len(self.maps):
            return self.maps[k]
        return QMatrix.zeros(self.target.dim(k), self.source.dim(k))

    def commutes(self) -> bool:
        """True iff d_Y ρ_k = ρ_(k+1) d_M in every degree k, tested row by
        row (``_rows_agree``) without building either product."""
        top = max(self.source.top_degree, self.target.top_degree)
        return all(
            _rows_agree(self.target.d_at(k), self.at(k), self.at(k + 1), self.source.d_at(k))
            for k in range(top + 1)
        )

    @staticmethod
    def identity(c: CochainComplex) -> "ComplexMap":
        return ComplexMap(c, c, [QMatrix.identity(n) for n in c.dims], check=False)

    @staticmethod
    def zero(source: CochainComplex, target: CochainComplex) -> "ComplexMap":
        top = min(source.top_degree, target.top_degree)
        return ComplexMap(
            source, target,
            [QMatrix.zeros(target.dim(k), source.dim(k)) for k in range(top + 1)],
            check=False,
        )

    def compose(self, inner: "ComplexMap") -> "ComplexMap":
        """self ∘ inner."""
        if inner.target is not self.source and inner.target != self.source:
            raise ShapeMismatchError("compose: middle complexes disagree")
        top = min(inner.source.top_degree, self.target.top_degree)
        return ComplexMap(
            inner.source, self.target,
            [self.at(k) @ inner.at(k) for k in range(top + 1)],
            check=False,
        )


def check_map_shapes(maps: Sequence[QMatrix], source: Sequence[int],
                     target: Sequence[int]) -> None:
    """Refuse a degree-k matrix that is not dim target^k × dim source^k,
    the dimensions being 0 off the ends of ``source`` and ``target``."""
    for k, m in enumerate(maps):
        rows = target[k] if k < len(target) else 0
        cols = source[k] if k < len(source) else 0
        if m.cols != cols or m.rows != rows:
            raise ShapeMismatchError(f"map[{k}] is {m.rows}x{m.cols}, expected {rows}x{cols}")


def _tensor_offsets(c1: CochainComplex, c2: CochainComplex) -> list[list[int]]:
    """offsets[n][i]: the first index of block (i, n-i) in degree n of
    tensor(c1, c2), for i = 0..n+1, so offsets[n][-1] is its dimension."""
    offsets = []
    for n in range(c1.top_degree + c2.top_degree + 1):
        off = [0]
        for i in range(n + 1):
            off.append(off[-1] + c1.dim(i) * c2.dim(n - i))
        offsets.append(off)
    return offsets


def _tensor_row_groups(c1: CochainComplex, c2: CochainComplex, col: list[int], n: int):
    """The rows of d_n of tensor(c1, c2) in order, one group (left, base,
    right) per row a of d1 in a row block (i, n+1-i), with ``col`` the
    offsets of degree n.  Row b of the group is {off + b: v} over
    (off, v) in ``left``, from d1 ⊗ id, with {base + c: v} over (c, v) in
    right[b], from (-1)^i id ⊗ d2; the two parts lie in different column
    blocks, (i-1, n+1-i) and (i, n-i)."""
    for i in range(n + 2):
        j = n + 1 - i
        width = c2.dim(j)
        if not c1.dim(i) or not width:
            continue
        # off the ends d_at gives empty rows, so blocks (-1, j) and
        # (n+1, -1) are never read
        d1 = c1.d_at(i - 1).sparse_rows
        right = [tuple(r.items()) if i % 2 == 0 else tuple((c, -v) for c, v in r.items())
                 for r in c2.d_at(j - 1).sparse_rows]
        inner = c2.dim(j - 1)
        for a in range(c1.dim(i)):
            yield ([(col[i - 1] + c * width, v) for c, v in d1[a].items()],
                   col[i] + a * inner, right)


def tensor(c1: CochainComplex, c2: CochainComplex) -> CochainComplex:
    """Tensor product complex with the usual sign (-1)^i on the second factor.

    Basis order in degree n: blocks (i, n-i) with i ascending; within a
    block the first factor index is major.  Row (a, b) of row block
    (i, n+1-i) of d_n is read off row a of d1 and row b of d2: its
    entries lie first in column block (i-1, n+1-i), from d1 ⊗ id, then
    in column block (i, n-i), from (-1)^i id ⊗ d2 (``_tensor_row_groups``).
    The result records its two factors, which ``is_tensor`` reads.
    """
    if not c1.verify() or not c2.verify():
        raise UnverifiedComplexError("tensor factors must satisfy d∘d = 0")
    if not c1.dims or not c2.dims:
        return ZERO_COMPLEX
    offsets = _tensor_offsets(c1, c2)
    dims = [off[-1] for off in offsets]
    ds = []
    for n in range(len(dims) - 1):
        out: list[SparseRow] = []
        for left, base, right in _tensor_row_groups(c1, c2, offsets[n], n):
            for b, r in enumerate(right):
                row = {off + b: v for off, v in left}
                for c, v in r:
                    row[base + c] = v
                out.append(row)
        ds.append(_sparse(dims[n + 1], dims[n], tuple(out)))
    product = CochainComplex(dims, ds)
    product._factors = (c1, c2)
    return product


def is_tensor(c: CochainComplex, c1: CochainComplex, c2: CochainComplex) -> bool:
    """True iff c == tensor(c1, c2), with the product not built: at once
    when ``tensor`` built ``c`` from these two objects, and otherwise when
    the dimensions agree, and each row of each differential of ``c`` has
    as many entries as its row of the product, and the product's entries
    at their columns (``_tensor_row_groups``).  The factors are not
    checked for d∘d = 0."""
    if c._factors is not None and c._factors[0] is c1 and c._factors[1] is c2:
        return True
    if not c1.dims or not c2.dims:
        return not c.dims
    offsets = _tensor_offsets(c1, c2)
    if c.dims != tuple(off[-1] for off in offsets):
        return False
    for n, d in enumerate(c.d):
        rows = iter(d.sparse_rows)
        for left, base, right in _tensor_row_groups(c1, c2, offsets[n], n):
            size = len(left)
            for b, r in enumerate(right):
                got = next(rows)
                if len(got) != size + len(r):
                    return False
                get = got.get
                for off, v in left:
                    if get(off + b) != v:
                        return False
                for col, v in r:
                    if get(base + col) != v:
                        return False
    return True


def tensor_dims(c1: CochainComplex, c2: CochainComplex) -> tuple[int, ...]:
    """The dimensions of tensor(c1, c2), with the product not built."""
    if not c1.dims or not c2.dims:
        return ()
    return tuple(off[-1] for off in _tensor_offsets(c1, c2))


def tensor_target_commutes(maps: Sequence[QMatrix], source: CochainComplex,
                           c1: CochainComplex, c2: CochainComplex) -> bool:
    """True iff ``maps`` (ρ_k for k = 0, 1, ..., zero past the last) is a
    chain map from ``source`` to tensor(c1, c2), with the product not
    built: d_n ρ_n = ρ_(n+1) d_n in every degree n.  Row (a, b) of
    d_n ρ_n - ρ_(n+1) d_n is accumulated as ``_rows_agree`` does, with
    row (a, b) of d_n of the product read from row a of d1 and row b of
    d2 as it is reached (``_tensor_row_groups``), and the test stops at
    the first nonzero row.  Shapes are the caller's to check."""
    if not c1.dims or not c2.dims:
        return True
    offsets = _tensor_offsets(c1, c2)
    for n in range(len(offsets) - 1):
        rho = maps[n].sparse_rows if n < len(maps) else None
        nxt = maps[n + 1].sparse_rows if n + 1 < len(maps) else None
        if rho is None and nxt is None:
            break
        dm = source.d_at(n).sparse_rows
        r = 0  # the row of d_n being formed
        for left, base, right in _tensor_row_groups(c1, c2, offsets[n], n):
            for b, row in enumerate(right):
                acc: SparseRow = {}
                get = acc.get
                if rho is not None:
                    for off, x in left:
                        for j, y in rho[off + b].items():
                            acc[j] = get(j, 0) + x * y
                    for c, x in row:
                        for j, y in rho[base + c].items():
                            acc[j] = get(j, 0) + x * y
                if nxt is not None:
                    for k, x in nxt[r].items():
                        for j, y in dm[k].items():
                            acc[j] = get(j, 0) - x * y
                r += 1
                if any(acc.values()):
                    return False
    return True


def tensor_map_blocks(phi: ComplexMap, psi: ComplexMap) -> list[QMatrix]:
    """Degreewise matrices of phi ⊗ psi, block diagonal in the bases of
    ``tensor``: the maps of ``tensor_map`` without building its ends, for
    callers that already hold the source and target complexes."""
    if not phi.source.dims or not psi.source.dims:
        return []
    maps = []
    for n in range(phi.source.top_degree + psi.source.top_degree + 1):
        col_blocks = [(i, n - i) for i in range(n + 1)]
        col_dims = [phi.source.dim(i) * psi.source.dim(j) for i, j in col_blocks]
        row_dims = [phi.target.dim(i) * psi.target.dim(j) for i, j in col_blocks]
        blocks: list[list[QMatrix | None]] = [
            [None] * len(col_blocks) for _ in range(len(col_blocks))
        ]
        for bi, (i, j) in enumerate(col_blocks):
            if col_dims[bi] and row_dims[bi]:
                blocks[bi][bi] = phi.at(i).kron(psi.at(j))
        maps.append(block_matrix(blocks, row_dims, col_dims))
    return maps


def tensor_map(phi: ComplexMap, psi: ComplexMap) -> ComplexMap:
    """Tensor product of chain maps, from tensor(sources) to tensor(targets)."""
    return ComplexMap(tensor(phi.source, psi.source), tensor(phi.target, psi.target),
                      tensor_map_blocks(phi, psi), check=False)


def mapping_cone(phi: ComplexMap) -> CochainComplex:
    """Cone of a chain map, graded so degree s holds source^s ⊕ target^(s-1).

    With this grading the cone of a restriction map computes relative
    cohomology in its natural degrees, and
    χ(cone) = χ(source) - χ(target).
    """
    if not phi.commutes():
        raise ChainMapError("mapping_cone: not a chain map")
    a, b = phi.source, phi.target
    if not a.dims and not b.dims:
        return ZERO_COMPLEX
    top = max(a.top_degree, b.top_degree + 1)
    dims = [a.dim(s) + b.dim(s - 1) for s in range(top + 1)]
    ds = []
    for s in range(top):
        blocks = [
            [a.d_at(s), None],
            [phi.at(s), -b.d_at(s - 1)],
        ]
        ds.append(
            block_matrix(
                blocks,
                [a.dim(s + 1), b.dim(s)],
                [a.dim(s), b.dim(s - 1)],
            )
        )
    return CochainComplex(dims, ds)


def induced_map_rank(phi: ComplexMap, k: int) -> int:
    """Rank of the map induced on degree-k cohomology.

    Uses the block-rank identity
    rank H^k(φ) = rank [[φ_k, d_B], [d_A, 0]] - rank d_A^k - rank d_B^(k-1),
    so only integer ranks are ever computed.
    """
    a, b = phi.source, phi.target
    if k < 0 or k > max(a.top_degree, b.top_degree):
        raise ValueError(f"degree {k} out of range")
    da = a.d_at(k)
    db = b.d_at(k - 1)
    big = block_matrix(
        [[phi.at(k), db], [da, None]],
        [b.dim(k), a.dim(k + 1)],
        [a.dim(k), b.dim(k - 1)],
    )
    return big.rank() - da.rank() - db.rank()


def truncate(c: CochainComplex, m: int) -> tuple[CochainComplex, ComplexMap]:
    """Canonical truncation τ_{<=m} together with its inclusion.

    Cohomology of the result equals that of ``c`` in degrees <= m and
    vanishes above; degree m is cut down to the kernel of d.
    """
    if not c.verify():
        raise UnverifiedComplexError("truncate: complex must satisfy d∘d = 0")
    if m < 0 or not c.dims:
        t = ZERO_COMPLEX
        return t, ComplexMap(t, c, (), check=False)
    if m >= c.top_degree:
        return c, ComplexMap.identity(c)
    ker, survivors = _kernel(c.d[m])
    dims = list(c.dims[:m]) + [ker.cols]
    ds = list(c.d[: max(m - 1, 0)])
    if m >= 1:
        # ker is the identity on the survivors' rows, so ker X = d_(m-1)
        # is solved by those rows of d_(m-1)
        rows = c.d[m - 1].sparse_rows
        ds.append(_sparse(ker.cols, c.dims[m - 1], tuple(rows[x] for x in survivors)))
    t = CochainComplex(dims, ds)
    incl = [QMatrix.identity(c.dims[k]) for k in range(m)] + [ker]
    return t, ComplexMap(t, c, incl, check=False)


def direct_sum(c1: CochainComplex, c2: CochainComplex) -> CochainComplex:
    if not c1.dims:
        return c2
    if not c2.dims:
        return c1
    top = max(c1.top_degree, c2.top_degree)
    dims = [c1.dim(k) + c2.dim(k) for k in range(top + 1)]
    ds = []
    for k in range(top):
        ds.append(
            block_matrix(
                [[c1.d_at(k), None], [None, c2.d_at(k)]],
                [c1.dim(k + 1), c2.dim(k + 1)],
                [c1.dim(k), c2.dim(k)],
            )
        )
    return CochainComplex(dims, ds)


def _zero_differential(dims: Sequence[int]) -> CochainComplex:
    """Complex with the given dimensions and every differential zero."""
    return CochainComplex(dims, [QMatrix.zeros(dims[k + 1], dims[k])
                                 for k in range(len(dims) - 1)])


def cohomology_inclusion(c: CochainComplex) -> ComplexMap:
    """i: H(c) -> c, with H(c) the zero-differential complex of Betti
    dimensions in the degree range of ``c``; the columns of i_k are
    cocycles whose classes form a basis of H^k(c)."""
    red = c.reduction()
    return ComplexMap(_zero_differential(c.cohomology_dims()), c,
                      [red.representatives(k, n) for k, n in enumerate(c.dims)], check=False)


def cohomology_projection(c: CochainComplex) -> ComplexMap:
    """p: c -> H(c), from the reduction that gives ``cohomology_inclusion``:
    p∘d = 0 and p_k ∘ i_k = 1 (``Reduction.projection``)."""
    red = c.reduction()
    return ComplexMap(c, _zero_differential(c.cohomology_dims()),
                      [red.projection(k, n) for k, n in enumerate(c.dims)], check=False)


# ---------------------------------------------------------------------------
# serialization: key/value records whose matrices are written sparse,
# {"rows": r, "cols": c, "nz": [[i, j, "v"], ...]} with one entry per
# nonzero, in row order and by column within a row, each value a rational
# string.  Dense row-major lists of rational strings are still read.


def matrix_to_dict(m: QMatrix) -> dict:
    """The sparse record of ``m``."""
    return {"rows": m.rows, "cols": m.cols,
            "nz": [[i, j, str(r[j])] for i, r in enumerate(m.sparse_rows) for j in sorted(r)]}


def _brief(x) -> str:
    text = repr(x)
    return text if len(text) <= 60 else text[:57] + "..."


# Every rational read from a model file, a config or a command line has
# numerator and denominator of at most this many digits, so str() (4300
# digits) and float() (up to about 1.8e308) stay defined on it.
RATIONAL_DIGITS = 100
_RATIONAL_BOUND = 10 ** RATIONAL_DIGITS
_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)\s*$")

# A complex read from a model file has at most this many cells in all its
# degrees together, and so has the Y = B ⊗ F its B and F imply
# (``stratified.model_from_dict``).  Parsing keeps a row per cell, so a
# larger record is refused from its dimensions, before any row exists.
MAX_COMPLEX_CELLS = 10 ** 6


def parse_rational(text: str) -> Rational:
    """A rational string ("3", "-1/2", "2.5e-3"), integral values as ints.

    Raises ValueError if ``text`` is not a rational and OverflowError if
    its numerator or denominator passes 10^RATIONAL_DIGITS; callers word
    the message.  An exponent too large for any nonzero mantissa is
    refused before ``Fraction`` builds 10 ** exp.
    """
    try:
        value = int(text)
    except ValueError:
        m = _EXPONENT.search(text)
        # no nonzero mantissa brings so large an exponent back in bounds:
        # read the mantissa alone rather than let Fraction build 10 ** exp
        huge = (m is not None and "/" not in text
                and abs(int(m.group(1))) > len(text) + 2 * RATIONAL_DIGITS)
        try:
            value = _exact(Fraction(text[:m.start()] if huge else text))
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in {text!r}") from exc
        if huge and value:
            raise OverflowError(f"exponent out of range in {text!r}") from None
    if abs(value.numerator) > _RATIONAL_BOUND or value.denominator > _RATIONAL_BOUND:
        raise OverflowError(f"rational out of range: {text!r}")
    return value


def _parse_entry(s) -> Rational:
    """One matrix entry: a rational string ("3", "-1/2") or an int."""
    if isinstance(s, str):
        try:
            return parse_rational(s)
        except OverflowError:
            raise ModelFormatError(
                f"rational out of range: {_brief(s)} (numerator and denominator "
                f"must be at most 10^{RATIONAL_DIGITS})") from None
        except ValueError:
            pass
    elif isinstance(s, (int, Fraction)) and not isinstance(s, bool):
        return _exact(s)
    raise ModelFormatError(f"not an exact rational: {_brief(s)}")


def matrix_from_lists(rows: int, cols: int, data) -> QMatrix:
    """Parse a matrix record, sparse (``matrix_to_dict``) or dense
    (row-major lists of rational strings), straight into sparse rows."""
    if isinstance(data, dict):
        return _matrix_from_nonzeros(rows, cols, data)
    if not isinstance(data, (list, tuple)):
        raise ModelFormatError(
            f"a matrix must be a list of rows or a sparse record, not {_brief(data)}")
    if len(data) != rows:
        raise ShapeMismatchError(f"entries do not form a {rows}x{cols} matrix")
    out = []
    for row in data:
        if not isinstance(row, (list, tuple)):
            raise ModelFormatError(
                f"a matrix row must be a list of rationals, not {_brief(row)}")
        if len(row) != cols:
            raise ShapeMismatchError(f"entries do not form a {rows}x{cols} matrix")
        parsed = {}
        for j, s in enumerate(row):
            if s != "0":
                v = _parse_entry(s)
                if v:
                    parsed[j] = v
        out.append(parsed)
    return _sparse(rows, cols, tuple(out))


def _matrix_from_nonzeros(rows: int, cols: int, data: dict) -> QMatrix:
    """Parse a sparse record: every entry is [i, j, v] with int indices
    in range, each index pair at most once, and v a nonzero rational."""
    r, c, nz = data.get("rows"), data.get("cols"), data.get("nz")
    if type(r) is not int or type(c) is not int or (r, c) != (rows, cols):
        raise ModelFormatError(
            f"a sparse matrix must have rows {rows} and cols {cols}, "
            f"not {_brief(r)} and {_brief(c)}")
    if not isinstance(nz, list):
        raise ModelFormatError(f"nz must be a list of [row, col, value] entries, not {_brief(nz)}")
    out: list[SparseRow] = [{} for _ in range(rows)]
    # each distinct value string is parsed and checked once; a zero
    # raises before it is stored, so every zero entry still raises
    parsed: dict[str, Rational] = {}
    for e in nz:
        if not isinstance(e, (list, tuple)) or len(e) != 3:
            raise ModelFormatError(f"a sparse entry must be [row, col, value], not {_brief(e)}")
        i, j, s = e
        if type(i) is not int or type(j) is not int:
            raise ModelFormatError(f"sparse entry {_brief(e)}: indices must be integers")
        if not (0 <= i < rows and 0 <= j < cols):
            raise ModelFormatError(
                f"sparse entry {_brief(e)}: index outside a {rows}x{cols} matrix")
        row = out[i]
        if j in row:
            raise ModelFormatError(f"sparse entry {_brief(e)}: index repeated")
        v = parsed.get(s) if type(s) is str else None
        if v is None:
            v = _parse_entry(s)
            if not v:
                raise ModelFormatError(f"sparse entry {_brief(e)}: explicit zero")
            if type(s) is str:
                parsed[s] = v
        row[j] = v
    return _sparse(rows, cols, tuple(out))


def int_from_json(value, what: str) -> int:
    """A nonnegative integer field of a model record (int or digit string)."""
    if not isinstance(value, bool) and isinstance(value, (int, str)):
        try:
            n = int(value)
        except ValueError:
            pass
        else:
            if n >= 0:
                return n
    raise ModelFormatError(f"{what} must be a nonnegative integer, not {_brief(value)}")


def check_cells(cells: int, what: str) -> None:
    """Refuse ``what`` of more than MAX_COMPLEX_CELLS cells."""
    if cells > MAX_COMPLEX_CELLS:
        raise ModelFormatError(
            f"{what} of {cells} cells is more than the {MAX_COMPLEX_CELLS} allowed")


def complex_to_dict(c: CochainComplex) -> dict:
    return {
        "dims": list(c.dims),
        "differentials": [matrix_to_dict(m) for m in c.d],
    }


def complex_from_dict(data: dict) -> CochainComplex:
    if not isinstance(data, dict):
        raise ModelFormatError(
            f"a complex must be an object with dims and differentials, not {_brief(data)}")
    dims, diffs = data.get("dims"), data.get("differentials")
    if not isinstance(dims, list):
        raise ModelFormatError(f"dims must be a list of dimensions, not {_brief(dims)}")
    if not isinstance(diffs, list):
        raise ModelFormatError(
            f"differentials must be a list of matrices, not {_brief(diffs)}")
    dims = [int_from_json(x, "a dimension") for x in dims]
    check_cells(sum(dims), "a complex")
    if len(diffs) != max(len(dims) - 1, 0):
        raise ShapeMismatchError(
            f"{len(dims)} degrees need {max(len(dims) - 1, 0)} differentials, got {len(diffs)}"
        )
    ds = [matrix_from_lists(dims[k + 1], dims[k], rows) for k, rows in enumerate(diffs)]
    return CochainComplex(dims, ds)


def map_to_dict(phi: ComplexMap) -> dict:
    return {"maps": [matrix_to_dict(m) for m in phi.maps]}


def map_from_dict(source: CochainComplex, target: CochainComplex, data: dict) -> ComplexMap:
    """Parse a chain map record (``maps_from_dict``).  Whether the maps
    commute with the differentials is left to the caller."""
    return ComplexMap(source, target, maps_from_dict(source.dims, target.dims, data),
                      check=False)


def maps_from_dict(source: Sequence[int], target: Sequence[int], data: dict) -> list[QMatrix]:
    """The matrices of a chain map record between complexes of the
    dimensions ``source`` and ``target``, shapes checked.  Whether they
    commute with the differentials is left to the caller (for a model's
    restriction, ``EdgeSpaceModel.validate``), so a load checks it once,
    row by row, without building the products."""
    maps = data.get("maps") if isinstance(data, dict) else None
    if not isinstance(maps, list):
        raise ModelFormatError(
            f"a map must be an object whose maps are a list, not {_brief(data)}")
    # one matrix per degree of the source or of the target; fewer would
    # silently make the missing degrees zero
    lo, hi = sorted((len(source), len(target)))
    if not lo <= len(maps) <= hi:
        want = str(lo) if lo == hi else f"{lo} to {hi}"
        raise ModelFormatError(f"a map needs {want} matrices, one per degree, got {len(maps)}")
    return [matrix_from_lists(target[k] if k < len(target) else 0,
                              source[k] if k < len(source) else 0, rows)
            for k, rows in enumerate(maps)]
