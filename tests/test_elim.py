import random
from fractions import Fraction

import pytest

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
