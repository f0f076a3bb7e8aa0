"""Sparse QMatrix operations against a dense Fraction reference."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from edgehodge import elim
from edgehodge.cochain import QMatrix, block_matrix

from oracles import sympy_matrix_rank

# zero-heavy, with units, non-unit integers and true fractions, so the
# rank exercises both the unit-pivot phase, the Bareiss remainder and
# the clearing of denominators
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


def test_rank_reaches_bareiss_remainder(monkeypatch):
    calls = []
    real = elim.bareiss_rank

    def spy(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(elim, "bareiss_rank", spy)
    # once denominators are cleared no entry is +-1 and every row and
    # column holds two: nothing for the unit phase, all of it for Bareiss
    mat = [[Fraction(2), Fraction(4), 0], [Fraction(6), 0, Fraction(3, 2)],
           [0, Fraction(3), Fraction(9, 2)]]
    assert QMatrix(3, 3, mat).rank() == sympy_matrix_rank(mat)
    assert calls == [3]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.lists(
    st.lists(st.sampled_from([0, 0, 0, 1, -1, -1, 2]), min_size=n, max_size=n),
    min_size=1, max_size=9)))
def test_rank_of_signed_incidence_like_matrices(rows):
    # mostly +-1 entries, so the unit phase pivots on -1 with fill-in
    assert elim.rank_int_rows(rows) == sympy_matrix_rank(rows)
