import json
import random
from fractions import Fraction

import pytest

from edgehodge.cochain import (
    CochainComplex,
    ComplexMap,
    QMatrix,
    cohomology_dims,
    cohomology_inclusion,
    cohomology_projection,
    complex_from_dict,
    complex_to_dict,
    induced_map_rank,
    kernel_basis,
    mapping_cone,
    tensor,
    truncate,
    verify_complex,
)
from edgehodge.errors import ShapeMismatchError, UnverifiedComplexError
from edgehodge.stratified import (
    circle_complex,
    interval_complex,
    point_complex,
    sphere2_complex,
    torus_complex,
)
from edgehodge.verify import _random_unimodular

from oracles import convolution, sympy_cohomology


def test_verify_circle():
    assert verify_complex(circle_complex())


def test_verify_rejects_nonzero_composite():
    bad = CochainComplex((1, 1, 1), [QMatrix(1, 1, [[1]]), QMatrix(1, 1, [[1]])])
    assert not verify_complex(bad)
    with pytest.raises(UnverifiedComplexError):
        cohomology_dims(bad)


def test_verify_zero_differentials():
    cx = CochainComplex((3, 5), [QMatrix.zeros(5, 3)])
    assert verify_complex(cx)


def test_shape_mismatch_rejected():
    with pytest.raises(ShapeMismatchError):
        CochainComplex((2, 2), [QMatrix.zeros(3, 2)])


def test_cohomology_circle():
    cx = circle_complex()
    assert cohomology_dims(cx) == (1, 1)
    assert sympy_cohomology(cx) == (1, 1)


def test_cohomology_torus_from_tensor():
    torus = torus_complex()
    assert torus.dims == (4, 8, 4)
    assert cohomology_dims(torus) == (1, 2, 1)
    assert sympy_cohomology(torus) == (1, 2, 1)


def test_cohomology_zero_complex():
    zero = CochainComplex((), ())
    assert cohomology_dims(zero) == ()


def test_tensor_with_point_is_identity():
    circ = circle_complex()
    t = tensor(circ, point_complex())
    assert cohomology_dims(t) == cohomology_dims(circ)


def test_tensor_homotopy_invariance_interval():
    t = tensor(circle_complex(), interval_complex())
    assert cohomology_dims(t) == (1, 1, 0)[: t.top_degree + 1]
    assert sympy_cohomology(t) == cohomology_dims(t)


def test_tensor_kunneth_convolution_random_pairs():
    pool = [circle_complex(), sphere2_complex(), interval_complex(), torus_complex()]
    for a in pool:
        for b in pool:
            t = tensor(a, b)
            assert verify_complex(t)
            assert cohomology_dims(t) == convolution(
                cohomology_dims(a), cohomology_dims(b))


def test_mapping_cone_identity_acyclic():
    cone = mapping_cone(ComplexMap.identity(circle_complex()))
    assert all(h == 0 for h in cohomology_dims(cone))


def test_mapping_cone_zero_map_shifts():
    circ = circle_complex()
    cone = mapping_cone(ComplexMap.zero(circ, circ))
    assert cohomology_dims(cone) == (1, 2, 1)


def test_mapping_cone_vertex_inclusion_relative_circle():
    # restriction to one vertex computes the relative cohomology of the pair
    circ = circle_complex()
    rho = ComplexMap(circ, point_complex(), [QMatrix(1, 2, [[1, 0]])])
    assert cohomology_dims(mapping_cone(rho)) == (0, 1)


def test_mapping_cone_euler_bookkeeping():
    circ = circle_complex()
    rho = ComplexMap(circ, point_complex(), [QMatrix(1, 2, [[1, 0]])])
    cone = mapping_cone(rho)
    assert cone.euler_characteristic() == (
        circ.euler_characteristic() - point_complex().euler_characteristic()
    )


def test_induced_map_rank_identity_and_zero():
    torus = torus_complex()
    ident = ComplexMap.identity(torus)
    zero = ComplexMap.zero(torus, torus)
    for k, betti in enumerate(cohomology_dims(torus)):
        assert induced_map_rank(ident, k) == betti
        assert induced_map_rank(zero, k) == 0


def test_induced_map_rank_degree_two_selfmap():
    # winding-number-two self map of the circle on its minimal model
    mini = CochainComplex((1, 1), [QMatrix.zeros(1, 1)])
    phi = ComplexMap(mini, mini, [QMatrix.identity(1), QMatrix(1, 1, [[2]])])
    assert induced_map_rank(phi, 1) == 1
    assert induced_map_rank(phi, 0) == 1


def test_induced_map_rank_degree_out_of_range():
    with pytest.raises(ValueError):
        induced_map_rank(ComplexMap.identity(circle_complex()), -1)


def test_chain_map_commutation_enforced():
    circ = circle_complex()
    with pytest.raises(Exception):
        ComplexMap(circ, circ, [QMatrix.identity(2), QMatrix(2, 2, [[2, 0], [0, 2]])])


def test_truncation_cohomology():
    torus = torus_complex()
    for m in range(-1, 3):
        t, incl = truncate(torus, m)
        assert incl.commutes()
        h = cohomology_dims(t)
        expect = tuple(b for k, b in enumerate(cohomology_dims(torus)) if k <= m)
        assert h == expect


def test_kernel_basis_and_solve():
    m = QMatrix(2, 3, [[1, 2, 3], [2, 4, 6]])
    k = kernel_basis(m)
    assert k.cols == 2
    assert (m @ k).is_zero()


def test_serialization_bit_exact_roundtrip():
    cx = CochainComplex(
        (2, 2),
        [QMatrix(2, 2, [[Fraction(-1, 3), 1], [Fraction(22, 7), Fraction(-66, 7)]])],
    )
    # wire format survives a JSON trip with exact entries
    data = json.loads(json.dumps(complex_to_dict(cx)))
    assert complex_from_dict(data) == cx
    assert any("/" in s for row in data["differentials"][0] for s in [row[0]])


def test_euler_characteristic_identity():
    for cx in (circle_complex(), torus_complex(), sphere2_complex(),
               tensor(circle_complex(), sphere2_complex())):
        chi_chain = cx.euler_characteristic()
        chi_h = sum((-1) ** k * h for k, h in enumerate(cohomology_dims(cx)))
        assert chi_chain == chi_h


def test_basis_change_invariance_seeded():
    rng = random.Random(5)
    torus = torus_complex()
    for _ in range(3):
        ps, inv = zip(*(_random_unimodular(n, rng) for n in torus.dims))
        assert all(p @ q == QMatrix.identity(p.rows) for p, q in zip(ps, inv))
        conj = CochainComplex(
            torus.dims,
            [ps[k + 1] @ torus.d[k] @ inv[k] for k in range(len(torus.d))],
        )
        assert cohomology_dims(conj) == cohomology_dims(torus)
        check_cohomology_maps(conj)


def check_cohomology_maps(c):
    # i: H -> c and p: c -> H are chain maps over the Betti dimensions,
    # and p_k i_k is invertible, so both are quasi-isomorphisms
    i, p = cohomology_inclusion(c), cohomology_projection(c)
    betti = cohomology_dims(c)
    assert i.source.dims == p.target.dims == betti
    assert i.commutes() and p.commutes()
    for k, h in enumerate(betti):
        assert (p.at(k) @ i.at(k)).rank() == h


def test_cohomology_inclusion_and_projection():
    pieces = [circle_complex(), interval_complex(), point_complex(),
              sphere2_complex(), torus_complex()]
    for a in pieces:
        check_cohomology_maps(a)
        for b in pieces:
            check_cohomology_maps(tensor(a, b))
