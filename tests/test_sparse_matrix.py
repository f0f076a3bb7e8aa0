"""Sparse QMatrix operations against a dense Fraction reference."""

import math
from bisect import bisect_left
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from edgehodge import cochain, elim
from edgehodge.cochain import QMatrix, block_matrix

from oracles import sympy_matrix_rank

# zero-heavy, with units, non-unit integers and true fractions, so the
# elimination meets rows with no unit entry and rational pivots
ENTRIES = st.sampled_from([
    Fraction(0), Fraction(0), Fraction(0), Fraction(1), Fraction(-1),
    Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4),
])
DIM = st.integers(min_value=0, max_value=5)


def dense(rows, cols):
    return st.lists(st.lists(ENTRIES, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def matrices(draw, rows=None, cols=None):
    rows = draw(DIM) if rows is None else rows
    cols = draw(DIM) if cols is None else cols
    return rows, cols, draw(dense(rows, cols))


def q(m):
    rows, cols, ents = m
    return QMatrix(rows, cols, ents)


def ref_matmul(a, b, inner, cols):
    return [[sum((a[i][k] * b[k][j] for k in range(inner)), Fraction(0))
             for j in range(cols)] for i in range(len(a))]


def ref_kron(a, b):
    return [[x * y for x in arow for y in brow] for arow in a for brow in b]


def ref_transpose(a, rows, cols):
    return [[a[i][j] for i in range(rows)] for j in range(cols)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sparse_ops_match_dense_reference(data):
    m, n, p = data.draw(DIM), data.draw(DIM), data.draw(DIM)
    a = data.draw(matrices(m, n))
    b = data.draw(matrices(n, p))
    c = data.draw(matrices(m, n))
    k = data.draw(ENTRIES)
    qa, qb, qc = q(a), q(b), q(c)

    assert qa.entries == tuple(tuple(r) for r in a[2])
    assert qa @ qb == QMatrix(m, p, ref_matmul(a[2], b[2], n, p))
    assert qa.kron(qb) == QMatrix(m * n, n * p, ref_kron(a[2], b[2]))
    assert qa.transpose() == QMatrix(n, m, ref_transpose(a[2], m, n))
    assert qa + qc == QMatrix(m, n, [[x + y for x, y in zip(r, s)]
                                     for r, s in zip(a[2], c[2])])
    assert -qa == QMatrix(m, n, [[-x for x in r] for r in a[2]])
    assert qa.scale(k) == QMatrix(m, n, [[k * x for x in r] for r in a[2]])
    assert (qa + (-qa)).is_zero()
    assert hash(qa @ qb) == hash(QMatrix(m, p, ref_matmul(a[2], b[2], n, p)))
    assert qa.rank() == sympy_matrix_rank(a[2])
    assert all(type(v) is int or v.denominator > 1
               for r in (qa @ qb).sparse_rows for v in r.values())


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_block_matrix_matches_dense_reference(data):
    row_dims = [data.draw(DIM), data.draw(DIM)]
    col_dims = [data.draw(DIM), data.draw(DIM)]
    blocks, dense_rows = [], [[Fraction(0)] * sum(col_dims) for _ in range(sum(row_dims))]
    r0 = 0
    for rd in row_dims:
        band, c0 = [], 0
        for cd in col_dims:
            if data.draw(st.booleans()):
                blk = data.draw(matrices(rd, cd))
                band.append(q(blk))
                for i, row in enumerate(blk[2]):
                    dense_rows[r0 + i][c0:c0 + cd] = row
            else:
                band.append(None)
            c0 += cd
        blocks.append(band)
        r0 += rd
    got = block_matrix(blocks, row_dims, col_dims)
    assert got == QMatrix(sum(row_dims), sum(col_dims), dense_rows)
    assert got.rank() == sympy_matrix_rank(dense_rows)


def sparse(ents):
    return [{j: v for j, v in enumerate(r) if v} for r in ents]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.lists(
    st.lists(st.sampled_from([0, 0, 0, 1, -1, -1, 2]), min_size=n, max_size=n),
    min_size=1, max_size=9)))
def test_rank_of_signed_incidence_like_matrices(rows):
    # mostly +-1 entries, so cancel pivots on -1 with fill-in
    assert elim.rank_sparse(sparse(rows)) == sympy_matrix_rank(rows)


def dense_rref(rows):
    """Reference Gauss-Jordan on dense Fraction rows: (nonzero rows of the
    reduced row echelon form, pivot columns)."""
    rows = [[Fraction(x) for x in r] for r in rows]
    m, n = len(rows), len(rows[0]) if rows else 0
    pivots, r = [], 0
    for c in range(n):
        piv = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_cancel_pivots_count_leading_row_ranks(m):
    # each row is reduced against every earlier pivot, so the pivots
    # among the first t rows count the rank of those rows
    rows, _, ents = m
    pivots = [b for b, *_ in elim.cancel(sparse(ents))]
    for t in range(rows + 1):
        assert bisect_left(pivots, t) == sympy_matrix_rank(ents[:t])


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rank_sparse_matches_bareiss(m):
    ents = m[2]
    cleared = [[int(x * math.lcm(*(y.denominator for y in r))) for x in r] for r in ents]
    assert elim.rank_sparse(sparse(ents)) == elim.bareiss_rank(cleared)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_kernel_basis_properties(m):
    rows, cols, ents = m
    mat = q(m)
    k = cochain.kernel_basis(mat)
    assert k.rows == cols and k.cols == cols - sympy_matrix_rank(ents)
    assert (mat @ k).is_zero()
    assert sympy_matrix_rank(k.entries) == k.cols
    # the identity on the coordinates cancel left unpaired
    red = cochain.reduce_complex(cochain.CochainComplex((cols, rows), [mat]))
    assert [k.sparse_rows[x] for x in red.survivors[0]] == [{j: 1} for j in range(k.cols)]


def dense_rank(mat):
    return len(dense_rref(mat.entries)[1]) if mat.rows and mat.cols else 0


@st.composite
def complexes(draw):
    """A random complex C^0 -> C^1 -> C^2 -> C^3 built backwards: d_2 is
    any matrix and each d_(k-1) is a kernel basis of d_k times a random
    matrix, so entries include 2, -3, 1/2 and rows with no unit entry."""
    n = [draw(DIM) for _ in range(4)]
    ds = [q(draw(matrices(n[3], n[2])))]
    for k in (1, 0):
        z = cochain.kernel_basis(ds[0])
        ds.insert(0, z @ q(draw(matrices(z.cols, n[k]))))
    return cochain.CochainComplex(n, ds)


def dense_betti(c):
    return [c.dims[k] - dense_rank(c.d_at(k)) - dense_rank(c.d_at(k - 1))
            for k in range(len(c.dims))]


@settings(max_examples=150, deadline=None)
@given(complexes())
def test_reduce_complex_matches_dense_reference(c):
    red = cochain.reduce_complex(c)
    incl = cochain.cohomology_inclusion(c)
    for k, betti in enumerate(dense_betti(c)):
        d_in, d_out = c.d_at(k - 1), c.d_at(k)
        assert len(red.survivors[k]) == betti
        reps = incl.at(k)
        assert reps.rows == c.dims[k] and reps.cols == betti
        assert (d_out @ reps).is_zero()
        both = block_matrix([[d_in, reps]], [c.dims[k]], [d_in.cols, betti])
        assert dense_rank(both) == dense_rank(d_in) + betti


@settings(max_examples=100, deadline=None)
@given(complexes())
def test_truncate_matches_dense_reference(c):
    betti = dense_betti(c)
    for m in range(-1, 5):
        t, incl = cochain.truncate(c, m)
        assert incl.commutes()
        h = list(cochain.cohomology_dims(t))
        assert h + [0] * (4 - len(h)) == [b if k <= m else 0 for k, b in enumerate(betti)]
