import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from edgehodge.cochain import (
    CochainComplex,
    ComplexMap,
    QMatrix,
    ZERO_COMPLEX,
    block_matrix,
    cohomology_dims,
    cohomology_inclusion,
    cohomology_projection,
    complex_from_dict,
    complex_to_dict,
    direct_sum,
    induced_map_rank,
    is_tensor,
    kernel_basis,
    mapping_cone,
    tensor,
    tensor_dims,
    tensor_target_commutes,
    truncate,
)
from edgehodge.errors import ShapeMismatchError, UnverifiedComplexError
from edgehodge.stratified import (
    _closed_model,
    _cone_model,
    circle_complex,
    interval_complex,
    point_complex,
    sphere2_complex,
    torus_complex,
)
from edgehodge.verify import _random_unimodular

from oracles import convolution, sympy_cohomology


def test_verify_circle():
    assert circle_complex().verify()


def test_verify_rejects_nonzero_composite():
    bad = CochainComplex((1, 1, 1), [QMatrix(1, 1, [[1]]), QMatrix(1, 1, [[1]])])
    assert not bad.verify()
    with pytest.raises(UnverifiedComplexError):
        cohomology_dims(bad)


def test_verify_zero_differentials():
    cx = CochainComplex((3, 5), [QMatrix.zeros(5, 3)])
    assert cx.verify()


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
            assert t.verify()
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
    assert data["differentials"][0]["nz"] == [
        [0, 0, "-1/3"], [0, 1, "1"], [1, 0, "22/7"], [1, 1, "-66/7"]]


def test_dense_and_sparse_records_parse_alike():
    cx = torus_complex()
    dense = {"dims": list(cx.dims),
             "differentials": [[[str(x) for x in row] for row in m.entries] for m in cx.d]}
    sparse = complex_to_dict(cx)
    for record in (dense, sparse):
        parsed = complex_from_dict(json.loads(json.dumps(record)))
        assert parsed == cx
        assert [[list(r) for r in m.sparse_rows] for m in parsed.d] == \
            [[sorted(r) for r in m.sparse_rows] for m in cx.d]
    assert all(m["nz"] and all(v != "0" for _, _, v in m["nz"])
               for m in sparse["differentials"])


def test_sparse_values_parse_alike_however_spelt():
    # each distinct value string is parsed once per matrix; "1", "2/2",
    # "+1" and the JSON int 1 still read as the int 1, and every entry as
    # it reads when parsed alone
    from edgehodge.cochain import _parse_entry, matrix_from_lists

    nz = [[0, 0, "1"], [0, 1, "2/2"], [0, 2, "2/2"], [1, 0, "+1"], [1, 1, 1],
          [1, 2, "-1/2"], [2, 0, "1"], [2, 1, "-2/4"], [2, 2, 1]]
    record = json.loads(json.dumps({"rows": 3, "cols": 3, "nz": nz}))
    got = matrix_from_lists(3, 3, record)
    want = [{} for _ in range(3)]
    for i, j, v in record["nz"]:
        want[i][j] = _parse_entry(v)
    assert [[(j, type(v), v) for j, v in r.items()] for r in got.sparse_rows] == \
        [[(j, type(v), v) for j, v in r.items()] for r in want]
    assert all(type(v) is int for r in got.sparse_rows for v in r.values() if v == 1)


def _kron_tensor(c1, c2):
    # the textbook assembly: d1 ⊗ id and (-1)^i id ⊗ d2 as Kronecker
    # blocks of a block matrix
    top = c1.top_degree + c2.top_degree
    dims = [sum(c1.dim(i) * c2.dim(n - i) for i in range(n + 1)) for n in range(top + 1)]
    ds = []
    for n in range(top):
        col_dims = [c1.dim(i) * c2.dim(n - i) for i in range(n + 1)]
        row_dims = [c1.dim(i) * c2.dim(n + 1 - i) for i in range(n + 2)]
        blocks = [[None] * (n + 1) for _ in range(n + 2)]
        for i in range(n + 1):
            blocks[i + 1][i] = c1.d_at(i).kron(QMatrix.identity(c2.dim(n - i)))
            blk = QMatrix.identity(c1.dim(i)).kron(c2.d_at(n - i))
            blocks[i][i] = blk if i % 2 == 0 else -blk
        ds.append(block_matrix(blocks, row_dims, col_dims))
    return CochainComplex(dims, ds)


def test_tensor_matches_kronecker_block_assembly():
    rng = random.Random(3)
    pieces = [circle_complex(), interval_complex(), point_complex(), sphere2_complex(),
              torus_complex(), direct_sum(circle_complex(), sphere2_complex()),
              CochainComplex((0, 2), [QMatrix.zeros(2, 0)])]
    pieces += [CochainComplex(c.dims, [m.scale(Fraction(rng.choice((-2, 3)), rng.choice((1, 5))))
                                       for m in c.d]) for c in pieces[:5]]
    for a in pieces:
        for b in pieces:
            got, want = tensor(a, b), _kron_tensor(a, b)
            assert got == want
            # the same entry order too, so eliminations pivot alike
            assert [[list(r.items()) for r in m.sparse_rows] for m in got.d] == \
                [[list(r.items()) for r in m.sparse_rows] for m in want.d]


def _generated_check_agrees(m, b, f, rho) -> bool:
    # the generated check against the materialised one, with Y built by
    # ``tensor`` and, independently of its row generator, by Kronecker blocks
    got = tensor_target_commutes(rho, m, b, f)
    assert got == ComplexMap(m, tensor(b, f), rho, check=False).commutes()
    assert got == ComplexMap(m, _kron_tensor(b, f), rho, check=False).commutes()
    return got


def _with_entry(mat, r, j, value):
    rows = [dict(row) for row in mat.sparse_rows]
    if value:
        rows[r][j] = value
    else:
        rows[r].pop(j, None)
    return QMatrix(mat.rows, mat.cols, [[row.get(c, 0) for c in range(mat.cols)] for row in rows])


def _mutation_breaks(m, y, k, r, j) -> bool:
    # ρ_k[r, j] += δ changes row r of ρ_k d_(k-1) by δ·(row j of d_M,k-1)
    # and column j of d_Y,k ρ_k by δ·(column r of d_Y,k)
    return (k > 0 and bool(m.d_at(k - 1).sparse_rows[j])) or \
        any(r in row for row in y.d_at(k).sparse_rows)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_generated_chain_map_check_matches_the_materialised_one(seed):
    rng = random.Random(seed)
    pieces = [point_complex(), circle_complex(), interval_complex(), sphere2_complex()]
    base, fibre = rng.choice(pieces), rng.choice(pieces)
    if rng.random() < 0.3:
        fibre = tensor(fibre, rng.choice(pieces))
    model = (_closed_model("closed", base, fibre, "") if rng.random() < 0.6
             else _cone_model("cone", fibre, ""))
    b, f, m, rho = model.B, model.F, model.M, list(model.rho)
    y = tensor(b, f)
    top = y.top_degree
    assert _generated_check_agrees(m, b, f, rho)

    # one-entry mutations of ρ, one in a random degree and one in the top
    # degree, where d_Y = 0
    for degrees in (range(len(rho)), [top]):
        cells = [(k, r, j) for k in degrees for r in range(rho[k].rows)
                 for j in range(rho[k].cols)]
        if cells:
            k, r, j = rng.choice(cells)
            old = rho[k].sparse_rows[r].get(j, 0)
            mutated = list(rho)
            mutated[k] = _with_entry(rho[k], r, j, old + rng.choice((1, -1, 2)))
            assert _generated_check_agrees(m, b, f, mutated) == \
                (not _mutation_breaks(m, y, k, r, j))

    # one sign flipped in d_B or d_F: every row of ρ is nonzero, so the
    # changed rows of d_Y break the chain map
    factor = rng.choice(("B", "F"))
    c = b if factor == "B" else f
    entries = [(i, r, j) for i, d in enumerate(c.d) for r, row in enumerate(d.sparse_rows)
               for j in row]
    if entries:
        i, r, j = rng.choice(entries)
        ds = list(c.d)
        ds[i] = _with_entry(ds[i], r, j, -ds[i].sparse_rows[r][j])
        flipped = CochainComplex(c.dims, ds)
        if flipped.verify():
            pair = (flipped, f) if factor == "B" else (b, flipped)
            assert not _generated_check_agrees(m, *pair, rho)

    # M with fewer degrees than Y: ρ restricted to a truncation of M is a
    # chain map, and a random map of the same shapes is checked alike
    t, incl = truncate(m, rng.randrange(-1, m.top_degree + 1))
    rho_t = [rho[k] @ incl.at(k) for k in range(len(t.dims))]
    assert _generated_check_agrees(t, b, f, rho_t)
    shapes = [(mat.rows, mat.cols) for mat in rho_t]
    noise = [QMatrix(rows, cols, [[rng.choice((0, 0, 0, 1, -1)) for _ in range(cols)]
                                  for _ in range(rows)]) for rows, cols in shapes]
    _generated_check_agrees(t, b, f, noise)

    # M with a cell above the top degree of Y, where ρ has no rows
    dims = m.dims + (1,)
    above = CochainComplex(dims, list(m.d) + [QMatrix.zeros(1, m.dims[-1])])
    assert _generated_check_agrees(above, b, f, rho + [QMatrix.zeros(0, 1)])
    assert tensor_dims(b, f) == y.dims == model.y_dims


def _count_row_walks(monkeypatch) -> list:
    from edgehodge import cochain

    walked = []
    inner = cochain._tensor_row_groups

    def counting(*args):
        walked.append(args[-1])
        return inner(*args)
    monkeypatch.setattr(cochain, "_tensor_row_groups", counting)
    return walked


def test_is_tensor_reads_no_row_of_a_product_built_from_the_same_factors(monkeypatch):
    b, f = circle_complex(), torus_complex()
    y = tensor(b, f)
    walked = _count_row_walks(monkeypatch)
    assert is_tensor(y, b, f)
    assert walked == []
    # equal factors that are other objects are compared row by row
    assert is_tensor(y, circle_complex(), f)
    assert walked
    # the shared zero complex records no factors
    assert tensor(ZERO_COMPLEX, f) is ZERO_COMPLEX and is_tensor(ZERO_COMPLEX, b, f) is False


def test_is_tensor_walks_the_rows_of_a_parsed_complex(monkeypatch):
    b, f = point_complex(), circle_complex()
    y = tensor(b, f)
    parsed = complex_from_dict(json.loads(json.dumps(complex_to_dict(y))))
    walked = _count_row_walks(monkeypatch)
    assert is_tensor(parsed, b, f)
    assert walked
    # negate the degree-0 basis vector: still a complex, but not B ⊗ F
    d0 = [[-row[0], *row[1:]] for row in parsed.d[0].entries]
    twisted = CochainComplex(parsed.dims, [QMatrix(len(d0), parsed.dims[0], d0)])
    assert twisted.verify() and not is_tensor(twisted, b, f)


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
