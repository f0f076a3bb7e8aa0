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

Betti numbers and cocycle representatives come from one routine,
``reduce_complex``: it cancels pairs of cells joined by a nonzero entry
of a differential, with a rank-one Schur update of that differential
each time, until every differential is zero.  The survivors count the
Betti numbers, and replaying the recorded steps backwards turns each
survivor into a cocycle representative (``cohomology_inclusion``);
``cohomology_projection`` reduces the transposed complex.  Ranks of
single matrices (``QMatrix.rank``, ``induced_map_rank``) come from
``elim.rank_sparse``, and ``kernel_basis`` and ``solve_columns`` (a
Gauss-Jordan elimination) serve ``truncate`` and the verification suites.

Values are immutable after construction (the only mutation is internal
memoisation of ranks and Betti numbers), and every operation is a pure
function.  The row dicts are shared between matrices and are never
modified in place.
"""

from __future__ import annotations

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

    @staticmethod
    def from_rows(entries: Sequence[Sequence[Rational]], cols: int | None = None) -> "QMatrix":
        rows = len(entries)
        if cols is None:
            cols = len(entries[0]) if rows else 0
        return QMatrix(rows, cols, entries)

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

    def column(self, j: int) -> tuple[Rational, ...]:
        return tuple(r.get(j, 0) for r in self.sparse_rows)


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


def _eliminate(rows: Iterable[SparseRow]) -> tuple[list[SparseRow], list[int]]:
    """Gauss-Jordan elimination on sparse rows, column by column.

    Returns (pivot rows, pivot columns), both ordered by pivot column.
    Every pivot column is cleared from every other row, so the pivot rows
    are the nonzero rows of the reduced row echelon form, which is
    unique; the choice of pivot row only affects fill, and a unit entry
    on a short row is preferred.  The input rows are not modified.
    """
    rows = [dict(r) for r in rows if r]
    col_rows: dict[int, set[int]] = {}
    for i, r in enumerate(rows):
        for c in r:
            s = col_rows.get(c)
            if s is None:
                col_rows[c] = {i}
            else:
                s.add(i)
    done: set[int] = set()
    order: list[tuple[int, int]] = []
    for c in sorted(col_rows):
        holders = col_rows[c]
        cand = holders - done
        if not cand:
            continue
        i = min(cand, key=lambda t: (rows[t][c] not in (1, -1), len(rows[t]), t))
        prow = rows[i]
        v = prow[c]
        if v == -1:
            prow = {j: -x for j, x in prow.items()}
        elif v != 1:
            prow = {j: _exact(Fraction(x) / v) for j, x in prow.items()}
        rows[i] = prow
        done.add(i)
        order.append((c, i))
        pitems = tuple(prow.items())
        for t in holders - {i}:
            row = rows[t]
            f = row[c]
            for j, x in pitems:
                w = row.get(j, 0) - f * x
                if type(w) is not int and w.denominator == 1:
                    w = w.numerator
                if w:
                    if j not in row:
                        col_rows[j].add(t)
                    row[j] = w
                else:
                    del row[j]
                    col_rows[j].discard(t)
    return [rows[i] for _, i in order], [c for c, _ in order]


def _side_by_side(a: QMatrix, b: QMatrix) -> list[SparseRow]:
    """Rows of the augmented matrix [a | b]."""
    n = a.cols
    return [{**ra, **{n + j: v for j, v in rb.items()}}
            for ra, rb in zip(a.sparse_rows, b.sparse_rows)]


def kernel_basis(mat: QMatrix) -> QMatrix:
    """Matrix whose columns form a basis of the null space of ``mat``."""
    if mat.cols == 0:
        return QMatrix.zeros(0, 0)
    if mat.rows == 0:
        return QMatrix.identity(mat.cols)
    rows, pivots = _eliminate(mat.sparse_rows)
    pivot_set = set(pivots)
    free = [j for j in range(mat.cols) if j not in pivot_set]
    slot = {f: k for k, f in enumerate(free)}
    out: list[SparseRow] = [{} for _ in range(mat.cols)]
    for f, k in slot.items():
        out[f][k] = 1
    for row, pc in zip(rows, pivots):
        target = out[pc]
        for j, v in row.items():
            if j != pc:
                target[slot[j]] = -v
    return _sparse(mat.cols, len(free), tuple(out))


def solve_columns(a: QMatrix, b: QMatrix) -> QMatrix:
    """Solve a X = b where a has full column rank and the system is consistent."""
    if a.rows != b.rows:
        raise ShapeMismatchError("solve_columns: row mismatch")
    n = a.cols
    rows, pivots = _eliminate(_side_by_side(a, b))
    if any(p >= n for p in pivots):
        raise ShapeMismatchError("solve_columns: inconsistent system")
    if len(pivots) != n:
        raise ShapeMismatchError("solve_columns: matrix does not have full column rank")
    return _sparse(n, b.cols, tuple(
        {j - n: v for j, v in row.items() if j >= n} for row in rows))


class Reduction(NamedTuple):
    """A complex cancelled down to zero differentials (``reduce_complex``).

    ``survivors[k]`` are the degree-k cells left, one per Betti number;
    ``steps[k]`` lists the cancellations (a, u⁻¹, row b) of pairs
    a ∈ C^k, b ∈ C^(k+1) in the order they were made, where row b is
    d_k's row at that moment (without a).
    """

    survivors: tuple[tuple[int, ...], ...]
    steps: tuple[tuple[tuple[int, Rational, SparseRow], ...], ...]

    def representatives(self, k: int) -> list[SparseRow]:
        """One cocycle per degree-k survivor, whose classes form a basis
        of H^k: e_x pushed through the inclusion of each cancellation,
        last first, which sets v[a] = -u⁻¹⟨row b, v⟩."""
        steps = self.steps[k][::-1]
        out = []
        for x in self.survivors[k]:
            v: SparseRow = {x: 1}
            for a, uinv, row in steps:
                s = 0
                for j, w in row.items():
                    y = v.get(j)
                    if y is not None:
                        s += w * y
                if s:
                    v[a] = _exact(-uinv * s)
            out.append(v)
        return out


def reduce_complex(c: "CochainComplex") -> Reduction:
    """Cancel pairs of cells until every differential is zero.

    Degree by degree and row by row, a nonempty row b of d_k is paired
    with a column a where u = d_k[b, a] is ±1 and the column is shortest
    (the shortest column of any nonzero entry when the row holds no ±1).
    The cancellation is the rank-one Schur update d_k - γu⁻¹δ, with γ
    column a and δ row b, after which row b and column a leave d_k, row a
    leaves d_(k-1) (zero by then) and column b leaves d_(k+1) (dropped
    when d_(k+1) is reduced).  Each step is a chain homotopy
    equivalence (Kaczynski, Mrozek & Ślusarek 1998), so the survivors
    count the Betti numbers, and the recorded rows give cocycle
    representatives on demand (``Reduction.representatives``).
    """
    if not c.verify():
        raise UnverifiedComplexError("d∘d != 0; refusing to compute cohomology")
    paired: list[set[int]] = [set() for _ in c.dims]
    steps: list[tuple] = [()] * len(c.dims)
    for k, d in enumerate(c.d):
        gone = paired[k]
        rows = [{j: v for j, v in r.items() if j not in gone} if gone else dict(r)
                for r in d.sparse_rows]
        col_rows: dict[int, set[int]] = {}
        for b, r in enumerate(rows):
            for j in r:
                s = col_rows.get(j)
                if s is None:
                    col_rows[j] = {b}
                else:
                    s.add(b)
        done = []
        for b, row in enumerate(rows):
            if not row:
                continue
            a = min(row, key=lambda j: (row[j] not in (1, -1), len(col_rows[j])))
            u = row.pop(a)
            uinv = u if u in (1, -1) else _exact(1 / Fraction(u))
            for j in row:
                col_rows[j].discard(b)
            holders = col_rows.pop(a)
            holders.discard(b)
            items = tuple(row.items())
            for t in holders:
                target = rows[t]
                g = target.pop(a) * uinv
                for j, x in items:
                    w = target.get(j, 0) - g * x
                    if type(w) is not int and w.denominator == 1:
                        w = w.numerator
                    if w:
                        if j not in target:
                            col_rows[j].add(t)
                        target[j] = w
                    else:
                        del target[j]
                        col_rows[j].discard(t)
            gone.add(a)
            paired[k + 1].add(b)
            done.append((a, uinv, row))
        steps[k] = tuple(done)
    survivors = tuple(tuple(x for x in range(n) if x not in paired[k])
                      for k, n in enumerate(c.dims))
    return Reduction(survivors, tuple(steps))


class CochainComplex:
    """Finite cochain complex over the rationals.

    ``dims[k]`` is the dimension in degree k and ``d[k]`` maps degree k
    to degree k+1.  A complex with empty ``dims`` is the zero complex.
    """

    __slots__ = ("dims", "d", "_betti", "_verified")

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
        self._betti = None
        self._verified = None

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
        if self._verified is None:
            self._verified = all(
                (self.d[k + 1] @ self.d[k]).is_zero() for k in range(len(self.d) - 1)
            )
        return self._verified

    def cohomology_dims(self) -> tuple[int, ...]:
        if self._betti is None:
            self._betti = tuple(map(len, reduce_complex(self).survivors))
        return self._betti

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


def verify_complex(c: CochainComplex) -> bool:
    """True iff every composite d∘d vanishes (shapes are checked on build)."""
    return c.verify()


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
        for k, m in enumerate(self.maps):
            if m.cols != source.dim(k) or m.rows != target.dim(k):
                raise ShapeMismatchError(
                    f"map[{k}] is {m.rows}x{m.cols}, expected {target.dim(k)}x{source.dim(k)}"
                )
        if check and not self.commutes():
            raise ChainMapError("maps do not commute with the differentials")

    def at(self, k: int) -> QMatrix:
        if 0 <= k < len(self.maps):
            return self.maps[k]
        return QMatrix.zeros(self.target.dim(k), self.source.dim(k))

    def commutes(self) -> bool:
        top = max(self.source.top_degree, self.target.top_degree)
        for k in range(top + 1):
            lhs = self.target.d_at(k) @ self.at(k)
            rhs = self.at(k + 1) @ self.source.d_at(k)
            if lhs != rhs:  # the sparse form is canonical
                return False
        return True

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


def tensor(c1: CochainComplex, c2: CochainComplex) -> CochainComplex:
    """Tensor product complex with the usual sign (-1)^i on the second factor.

    Basis order in degree n: blocks (i, n-i) with i ascending; within a
    block the first factor index is major.
    """
    if not c1.verify() or not c2.verify():
        raise UnverifiedComplexError("tensor factors must satisfy d∘d = 0")
    if not c1.dims or not c2.dims:
        return ZERO_COMPLEX
    top = c1.top_degree + c2.top_degree
    dims = []
    for n in range(top + 1):
        dims.append(sum(c1.dim(i) * c2.dim(n - i) for i in range(n + 1)))
    ds = []
    for n in range(top):
        col_blocks = [(i, n - i) for i in range(n + 1)]
        row_blocks = [(i, n + 1 - i) for i in range(n + 2)]
        col_dims = [c1.dim(i) * c2.dim(j) for i, j in col_blocks]
        row_dims = [c1.dim(i) * c2.dim(j) for i, j in row_blocks]
        blocks: list[list[QMatrix | None]] = [
            [None] * len(col_blocks) for _ in range(len(row_blocks))
        ]
        for i, j in col_blocks:  # column block i is (i, j); row block r is (r, n+1-r)
            if col_dims[i] == 0:
                continue
            # d1 ⊗ id : block (i, j) -> (i+1, j)
            if row_dims[i + 1]:
                blocks[i + 1][i] = c1.d_at(i).kron(QMatrix.identity(c2.dim(j)))
            # (-1)^i id ⊗ d2 : block (i, j) -> (i, j+1)
            if row_dims[i]:
                blk = QMatrix.identity(c1.dim(i)).kron(c2.d_at(j))
                blocks[i][i] = blk if i % 2 == 0 else -blk
        ds.append(block_matrix(blocks, row_dims, col_dims))
    return CochainComplex(dims, ds)


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
    ker = kernel_basis(c.d_at(m))
    dims = list(c.dims[:m]) + [ker.cols]
    ds = list(c.d[: max(m - 1, 0)])
    if m >= 1:
        ds.append(solve_columns(ker, c.d_at(m - 1)))
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


def _transpose_complex(c: CochainComplex) -> CochainComplex:
    """The dual complex with degrees reversed: degree j holds the dual of
    degree top - j, and its differential out of degree j is d_(top-j-1)^T."""
    return CochainComplex(c.dims[::-1], [m.transpose() for m in reversed(c.d)])


def cohomology_inclusion(c: CochainComplex) -> ComplexMap:
    """i: H(c) -> c, with H(c) the zero-differential complex of Betti
    dimensions in the degree range of ``c``; the columns of i_k are
    cocycles whose classes form a basis of H^k(c)."""
    red = reduce_complex(c)
    if not c.dims:
        return ComplexMap(ZERO_COMPLEX, c, (), check=False)
    basis = []
    for k, n in enumerate(c.dims):
        cols = red.representatives(k)
        basis.append(_sparse(len(cols), n, tuple(cols)).transpose())
    return ComplexMap(_zero_differential([m.cols for m in basis]), c, basis,
                      check=False)


def cohomology_projection(c: CochainComplex) -> ComplexMap:
    """p: c -> H(c), read off ``cohomology_inclusion`` of the transposed
    complex.  The rows of p_k are cocycles of the transpose, so p∘d = 0
    and p is a chain map into H(c); they pair perfectly with H^k(c), so
    p_k ∘ i_k is invertible and p is a quasi-isomorphism."""
    dual = cohomology_inclusion(_transpose_complex(c))
    top = c.top_degree
    maps = [dual.at(top - k).transpose() for k in range(top + 1)]
    if not maps:
        return ComplexMap(c, ZERO_COMPLEX, (), check=False)
    return ComplexMap(c, _zero_differential([m.rows for m in maps]), maps,
                      check=False)


# ---------------------------------------------------------------------------
# serialization: key/value structure with row-major rational strings


def matrix_to_lists(m: QMatrix) -> list[list[str]]:
    out = []
    for r in m.sparse_rows:
        row = ["0"] * m.cols
        for c, v in r.items():
            row[c] = str(v)
        out.append(row)
    return out


def _brief(x) -> str:
    text = repr(x)
    return text if len(text) <= 60 else text[:57] + "..."


def _parse_entry(s) -> Rational:
    """One matrix entry: a rational string ("3", "-1/2") or an int."""
    if isinstance(s, str):
        try:
            return int(s)
        except ValueError:
            pass
        try:
            return _exact(Fraction(s))
        except (ValueError, ZeroDivisionError):
            pass
    elif isinstance(s, (int, Fraction)) and not isinstance(s, bool):
        return _exact(s)
    raise ModelFormatError(f"not an exact rational: {_brief(s)}")


def matrix_from_lists(rows: int, cols: int, data: Sequence[Sequence[str]]) -> QMatrix:
    """Parse row-major rational strings straight into sparse rows."""
    if not isinstance(data, (list, tuple)):
        raise ModelFormatError(f"a matrix must be a list of rows, not {_brief(data)}")
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


def complex_to_dict(c: CochainComplex) -> dict:
    return {
        "dims": list(c.dims),
        "differentials": [matrix_to_lists(m) for m in c.d],
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
    if len(diffs) != max(len(dims) - 1, 0):
        raise ShapeMismatchError(
            f"{len(dims)} degrees need {max(len(dims) - 1, 0)} differentials, got {len(diffs)}"
        )
    ds = [matrix_from_lists(dims[k + 1], dims[k], rows) for k, rows in enumerate(diffs)]
    return CochainComplex(dims, ds)


def map_to_dict(phi: ComplexMap) -> dict:
    return {"maps": [matrix_to_lists(m) for m in phi.maps]}


def map_from_dict(source: CochainComplex, target: CochainComplex, data: dict) -> ComplexMap:
    """Parse a chain map record.  Shapes are checked here; whether the
    maps commute with the differentials is left to the caller (for a
    model's restriction, ``EdgeSpaceModel.validate``), so a load checks
    it once."""
    maps = data.get("maps") if isinstance(data, dict) else None
    if not isinstance(maps, list):
        raise ModelFormatError(
            f"a map must be an object whose maps are a list, not {_brief(data)}")
    # one matrix per degree of the source or of the target; fewer would
    # silently make the missing degrees zero
    lo, hi = sorted((len(source.dims), len(target.dims)))
    if not lo <= len(maps) <= hi:
        want = str(lo) if lo == hi else f"{lo} to {hi}"
        raise ModelFormatError(f"a map needs {want} matrices, one per degree, got {len(maps)}")
    return ComplexMap(source, target, [
        matrix_from_lists(target.dim(k), source.dim(k), rows) for k, rows in enumerate(maps)
    ], check=False)
