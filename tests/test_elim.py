import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from edgehodge import elim

from oracles import sympy_matrix_rank


def _rank(rows):
    return elim.rank_sparse([{j: v for j, v in enumerate(row) if v} for row in rows])


def _random_matrix(rng, m, n, density=0.4, span=3):
    return [[rng.randint(-span, span) if rng.random() < density else 0
             for _ in range(n)] for _ in range(m)]


@pytest.mark.parametrize("seed", range(6))
def test_rank_matches_sympy(seed):
    rng = random.Random(seed)
    for _ in range(8):
        m = rng.randint(1, 18)
        n = rng.randint(1, 18)
        mat = _random_matrix(rng, m, n)
        assert _rank(mat) == sympy_matrix_rank(mat)


def test_rank_rank_deficient_structured():
    # duplicated and scaled rows
    base = [[1, 2, 3, 4], [0, 1, -1, 2]]
    mat = base + [[2 * x for x in base[0]], [a + b for a, b in zip(*base)]]
    assert _rank(mat) == 2


def test_rank_fraction_rows():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)]]
    assert _rank(rows) == sympy_matrix_rank(rows)
    rows = [[Fraction(1, 2), Fraction(1, 4)], [Fraction(2), Fraction(1)]]
    assert _rank(rows) == 1


def test_dense_kernel_agrees_with_pure():
    # the dense Bareiss reference on its own, against sympy
    rng = random.Random(99)
    for _ in range(10):
        mat = _random_matrix(rng, 12, 15, density=0.8)
        assert elim.bareiss_rank([row[:] for row in mat]) == sympy_matrix_rank(mat)


def test_zero_and_empty():
    assert _rank([]) == 0
    assert _rank([[0, 0], [0, 0]]) == 0
    assert _rank([[5]]) == 1


def test_large_entries_stay_exact():
    # values big enough that float rank estimation would misjudge
    big = 10 ** 30
    mat = [[big, big + 1], [big - 1, big]]
    # determinant is big^2 - (big^2 - 1) = 1: full rank
    assert _rank(mat) == 2
    mat = [[big, 2 * big], [3 * big, 6 * big]]
    assert _rank(mat) == 1


# -- pivot rule ------------------------------------------------------------
# cancel pairs each row with a ±1 entry of the shortest column, else the
# entry of the shortest column, the first in row order on ties; the steps
# (b, a, u⁻¹) below are frozen


@pytest.mark.parametrize("rows, steps", [
    # a ±1 entry of a longer column wins over a non-unit of a shorter one
    ([{0: 1, 1: 2}, {0: 3}, {0: 5}], [(0, 0, 1), (1, 1, Fraction(-1, 6))]),
    # of two ±1 entries the shorter column wins, though it comes second
    ([{0: 1, 1: -1}, {0: 1}], [(0, 1, -1), (1, 0, 1)]),
    # two ±1 entries of equal column length: the first in row order wins
    ([{2: -1, 0: 1}, {0: 1, 2: 1}], [(0, 2, -1), (1, 0, Fraction(1, 2))]),
    # no unit entry: the shortest column, u⁻¹ a Fraction
    ([{0: 3, 1: 2}, {0: 4}], [(0, 1, Fraction(1, 2)), (1, 0, Fraction(1, 4))]),
    # a Fraction pivot with an integral inverse stores it as an int
    ([{0: Fraction(1, 3), 1: Fraction(2, 3)}, {1: 3}], [(0, 0, 3), (1, 1, Fraction(1, 3))]),
], ids=["unit-before-shorter", "shorter-unit-second", "equal-units-first",
        "no-unit", "integral-inverse"])
def test_cancel_pivot_rule(rows, steps):
    got = [(b, a, uinv) for b, a, uinv, _, _ in elim.cancel(rows)]
    assert got == steps
    assert [type(u) for *_, u in got] == [type(u) for *_, u in steps]


# -- leading ranks -----------------------------------------------------------

_VALUES = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 4)))


@st.composite
def _rows_and_leading(draw):
    rows = draw(st.lists(st.dictionaries(st.integers(0, 5), _VALUES, max_size=4),
                         max_size=8))
    leading = draw(st.lists(st.integers(0, len(rows)), max_size=6))
    # t = 0, t = len(rows) and a repeated t always appear
    return rows, leading + [0, len(rows), len(rows) // 2, len(rows) // 2]


def _integral_dense(rows, width=6):
    # each row scaled by the lcm of its denominators: the same rank, in
    # the integers that bareiss_rank needs
    out = []
    for r in rows:
        scale = math.lcm(*(Fraction(v).denominator for v in r.values()))
        out.append([int(r.get(j, 0) * scale) for j in range(width)])
    return out


@settings(max_examples=200, deadline=None)
@given(_rows_and_leading())
def test_leading_ranks_are_the_prefix_ranks(case):
    rows, leading = case
    got = elim.rank_sparse([dict(r) for r in rows], leading)
    assert len(got) == len(leading)
    for t, rank in zip(leading, got):
        assert rank == elim.rank_sparse([dict(r) for r in rows[:t]])
        assert rank == elim.bareiss_rank(_integral_dense(rows[:t]))
