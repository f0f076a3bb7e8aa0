import json
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from edgehodge.cochain import cohomology_dims, tensor, truncate
from edgehodge.errors import ModelInvariantError, PerversityRangeError
from edgehodge.stratified import (
    BUILTIN_NAMES,
    Perversity,
    builtin_space,
    catalogue,
    cone_local_ih,
    extended_identities,
    ih_dim,
    ih_dims,
    ih_map_rank,
    middle_perversities,
    model_from_dict,
    model_to_dict,
    tube_ih,
)

from oracles import convolution, dense_model_dict, sympy_cohomology, truncated_betti


def test_middle_perversities_examples():
    assert middle_perversities(1) == (0, 0)
    assert middle_perversities(2) == (1, 0)
    assert middle_perversities(0) == (0, -1)


def test_cone_local_ih_torus_link():
    f_betti = (1, 2, 1)
    assert [cone_local_ih(f_betti, 2, 0, k) for k in range(3)] == [1, 2, 0]
    assert [cone_local_ih(f_betti, 2, 1, k) for k in range(3)] == [1, 0, 0]


def test_cone_local_ih_point_link_extended_range():
    assert cone_local_ih((1,), 0, 0, 0) == 0
    assert cone_local_ih((1,), 0, -1, 0) == 1


def test_tube_ih_circle_base_torus_fibre():
    # oracle: convolution of circle Betti (1,1) with the truncated torus
    # Betti (1,2,0) at cutoff f-1-p = 1
    space = builtin_space("edge-torus-over-circle")
    single_base_conv = convolution((1, 1), truncated_betti((1, 2, 1), Fraction(1)))
    assert single_base_conv == (1, 3, 2, 0)
    # the built-in carries two base circles, so dims double
    expect = tuple(2 * x for x in single_base_conv) + (0,)
    assert tube_ih(space, 0) == expect


def test_tube_ih_point_base_reduces_to_cone_rule():
    space = builtin_space("cone-torus")
    for p in (-1, 0, 1, 2, Fraction(1, 2)):
        expect = tuple(
            cone_local_ih((1, 2, 1), 2, p, k) for k in range(space.n + 1)
        )
        assert tube_ih(space, p) == expect


def test_tube_ih_empty_for_large_perversity():
    for name in BUILTIN_NAMES:
        space = builtin_space(name)
        assert tube_ih(space, space.f) == (0,) * (space.n + 1)
        assert tube_ih(space, space.f + 3) == (0,) * (space.n + 1)


def test_tube_oracle_equivalence_truncated_tensor():
    for name in BUILTIN_NAMES:
        space = builtin_space(name)
        for p in range(-1, space.f + 2):
            cut = space.effective_cutoff(p)
            tf, _ = truncate(space.F, cut)
            brute = cohomology_dims(tensor(space.B, tf)) if tf.dims else ()
            brute = tuple(brute) + (0,) * (space.n + 1 - len(brute))
            assert brute[: space.n + 1] == tube_ih(space, p), (name, p)


def test_ih_cone_torus_tables():
    space = builtin_space("cone-torus")
    assert ih_dims(space, 0) == (1, 2, 0, 0)
    assert ih_dims(space, 1) == (1, 0, 0, 0)


def test_ih_suspension_connected():
    space = builtin_space("susp-torus")
    assert ih_dim(space, 0, 0) == 1


def test_ih_suspension_duality_between_middle_perversities():
    space = builtin_space("susp-torus")
    low, bar = middle_perversities(space.f)
    for k in range(space.n + 1):
        assert ih_dim(space, low, k) == ih_dim(space, bar, space.n - k)


def test_ih_low_perversity_equals_regular_part():
    for name in BUILTIN_NAMES:
        space = builtin_space(name)
        h_m = cohomology_dims(space.M)
        h_m = tuple(h_m) + (0,) * (space.n + 1 - len(h_m))
        for p in (-1, -2, Fraction(-3, 2)):
            assert ih_dims(space, p) == h_m[: space.n + 1], (name, p)


def test_ih_perversity_zero_still_truncates_top_fibre_degree():
    # p = 0 sits at the edge of the extended range: the truncation rule
    # removes the top fibre class, so IH differs from H(M) exactly there
    space = builtin_space("cone-torus")
    assert ih_dims(space, 0) == (1, 2, 0, 0)
    h_m = cohomology_dims(space.M)
    assert tuple(h_m) == (1, 2, 1)


def test_ih_map_rank_identity_is_dim():
    space = builtin_space("susp-torus")
    for p in (0, 1, -1, 3):
        for k in range(space.n + 1):
            assert ih_map_rank(space, p, p, k) == ih_dim(space, p, k)


def test_ih_map_rank_cone_torus_middle():
    space = builtin_space("cone-torus")
    assert ih_map_rank(space, 1, 0, 1) == 0


def test_ih_map_rank_suspension_units():
    space = builtin_space("susp-torus")
    assert ih_map_rank(space, 1, 0, 0) == 1


def test_ih_map_rank_rejects_wrong_order():
    space = builtin_space("susp-torus")
    with pytest.raises(PerversityRangeError):
        ih_map_rank(space, 0, 1, 1)


def test_ih_map_rank_bounded_by_dims():
    space = builtin_space("edge-torus-over-circle")
    grid = [Fraction(n, 2) for n in range(-3, 8)]
    for i, p in enumerate(grid):
        for q in grid[: i + 1]:
            for k in range(space.n + 1):
                r = ih_map_rank(space, p, q, k)
                assert 0 <= r <= min(ih_dim(space, p, k), ih_dim(space, q, k))


def test_extended_identities_relative_branch():
    # cone over the torus: restriction is an isomorphism on cohomology,
    # so the relative cohomology of (cone, regular part) vanishes
    space = builtin_space("cone-torus")
    assert extended_identities(space, 2) == (0, 0, 0, 0)
    assert extended_identities(space, 2) == ih_dims(space, 2)
    # suspension: relative cohomology of (suspension, two points)
    susp = builtin_space("susp-torus")
    assert extended_identities(susp, 2) == (0, 1, 2, 1)
    assert extended_identities(susp, 2) == ih_dims(susp, 2)


def test_extended_identities_absolute_branch():
    for name in BUILTIN_NAMES:
        space = builtin_space(name)
        h_m = cohomology_dims(space.M)
        h_m = tuple(h_m) + (0,) * (space.n + 1 - len(h_m))
        assert extended_identities(space, -1) == h_m[: space.n + 1]
        assert extended_identities(space, -1) == ih_dims(space, -1)


def test_extended_identities_rejects_interior():
    space = builtin_space("cone-torus")
    with pytest.raises(PerversityRangeError):
        extended_identities(space, 1)


def test_truncation_saturation():
    for name in BUILTIN_NAMES:
        space = builtin_space(name)
        low = ih_dims(space, -1)
        for p in (-2, Fraction(-5, 2), -4):
            assert ih_dims(space, p) == low
        high = ih_dims(space, space.f)
        for p in (space.f + 1, Fraction(2 * space.f + 3, 2)):
            assert ih_dims(space, p) == high


def test_poincare_duality_extended_closed_spaces():
    for name in ("susp-torus", "edge-torus-over-circle", "edge-circle-over-circle"):
        space = builtin_space(name)
        low, bar = middle_perversities(space.f)
        for s in range(-2, 3):
            for twok in range(-2 * space.n, 2 * space.n + 1):
                k = Fraction(twok, 2)
                d1 = Fraction(space.n, 2) - k
                d2 = Fraction(space.n, 2) + k
                if d1.denominator != 1 or d1 < 0 or d2 < 0:
                    continue
                assert ih_dims(space, low + s)[int(d1)] == \
                    ih_dims(space, bar - s)[int(d2)], (name, s, k)


def _cutoff_spaces():
    # one model per link dimension f = 0..3
    from edgehodge.stratified import _cone_model, circle_complex, point_complex, sphere2_complex

    spaces = {space.f: space for space in map(builtin_space, BUILTIN_NAMES)}
    for fibre in (point_complex(), tensor(circle_complex(), sphere2_complex())):
        space = _cone_model("cone", fibre, "")
        spaces[space.f] = space
    return spaces


_CUTOFF_SPACES = _cutoff_spaces()


@given(st.sampled_from(sorted(_CUTOFF_SPACES)),
       st.fractions(min_value=-8, max_value=8, max_denominator=12),
       st.sampled_from(["Perversity", "Fraction", "int", "str"]))
def test_effective_cutoff_is_clamped_floor(f, q, form):
    space = _CUTOFF_SPACES[f]
    if form == "int":
        q = Fraction(math.floor(q))
    p = {"Perversity": Perversity, "Fraction": Fraction, "int": int, "str": str}[form](q)
    want = max(-1, min(f, math.floor(Fraction(f - 1) - q)))
    assert space.effective_cutoff(p) == want


def _every_answer(space):
    from edgehodge import weights

    grid = [Fraction(t, 2) for t in range(-4, 2 * space.f + 5)]
    out = [ih_dims(space, p) for p in grid]
    out += [ih_map_rank(space, p, q, k)
            for i, p in enumerate(grid) for q in grid[: i + 1] for k in range(space.n + 2)]
    for a in grid:
        out += [weights.weighted_derham_dims(space, a, "max"),
                weights.weighted_derham_dims(space, a, "min"),
                weights.minimal_hodge_dims(space, a)]
    out += [weights.complete_l2(space, k) for k in range(space.n + 2)]
    return out


def test_queries_build_no_total_complex(monkeypatch):
    # every answer comes from the rank table: with the chain-level
    # reference and the minimal model made to raise, fresh models still
    # give the answers they gave before
    from edgehodge import cochain
    from edgehodge.stratified import EdgeSpaceModel

    before = {name: _every_answer(builtin_space(name)) for name in BUILTIN_NAMES}

    def refuse(*args, **kwargs):
        raise AssertionError("a query built a chain-level reference object")

    for attr in ("total_complex", "total_map", "truncated_tube", "minimal_model"):
        monkeypatch.setattr(EdgeSpaceModel, attr, refuse)
    original = cochain.induced_map_rank
    for name, mod in list(sys.modules.items()):
        if name.startswith("edgehodge") and getattr(mod, "induced_map_rank", None) is original:
            monkeypatch.setattr(mod, "induced_map_rank", refuse)
    for name in BUILTIN_NAMES:
        assert _every_answer(builtin_space(name)) == before[name], name


_MODEL_DATA = {"name", "n", "b", "f", "F", "B", "M", "rho", "y_dims", "description"}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_models_keep_no_cache_but_the_rank_table(name):
    # the chain-level reference is rebuilt on each call: after every query
    # and every reference call a model holds its data, _table and _minimal
    space = builtin_space(name)
    _every_answer(space)
    minimal = space.minimal_model()
    for model in (space, minimal):
        for c in range(-1, model.f + 1):
            model.truncated_tube(c)
            model.total_map(-1, c)
            model.total_map(c, model.f)
        assert set(vars(model)) == _MODEL_DATA | {"_table", "_minimal"}
    assert minimal._minimal is minimal


def test_loads_multiply_no_matrices(monkeypatch):
    # d∘d, the chain-map property and Y = B ⊗ F are checked row by row: with
    # QMatrix.__matmul__ made to raise, a dense record that carries Y and
    # the n = 8 ladder rung, which omits it, still load
    from edgehodge.cochain import QMatrix

    records = [json.loads(json.dumps(dense_model_dict(builtin_space(name))))
               for name in ("cone-circle", "edge-torus-over-circle")]
    records.append(json.loads(_ngon_model_file(8)))

    def refuse(self, other):
        raise AssertionError("a load multiplied two matrices")

    monkeypatch.setattr(QMatrix, "__matmul__", refuse)
    for data in records:
        space = model_from_dict(data)
        assert (space.name, space.n) == (data["name"], data["n"])


def test_only_a_y_read_from_a_file_is_compared_row_by_row(monkeypatch):
    # a model holds no Y, so built-ins, records without Y and minimal
    # models are never compared with tensor(B, F); a Y parsed from a record
    # is compared once, at load, row by row, and then dropped
    from edgehodge import cochain, stratified

    compared, walked = [], []
    inner, groups = cochain.is_tensor, cochain._tensor_row_groups

    def counting(c, c1, c2):
        before = len(walked)
        result = inner(c, c1, c2)
        compared.append((c.dims, len(walked) > before))
        return result

    def walking(*args):
        walked.append(args[-1])
        return groups(*args)
    monkeypatch.setattr(stratified, "is_tensor", counting)
    monkeypatch.setattr(cochain, "_tensor_row_groups", walking)
    space = builtin_space("edge-torus-over-circle")
    built = [space, _load(model_to_dict(space)), space.minimal_model()]
    for model in built:
        model.validate()
    assert compared == []
    parsed = _load(dense_model_dict(space))
    assert compared == [((16, 48, 48, 16), True)]
    parsed.validate()
    assert len(compared) == 1


def test_engine_agrees_with_sympy_on_total_complex():
    space = builtin_space("susp-torus")
    tot = space.total_complex(space.effective_cutoff(0))
    assert cohomology_dims(tot) == sympy_cohomology(tot)


def test_catalogue_contents():
    cat = {c["name"]: c for c in catalogue()}
    assert len(cat) >= 6
    assert cat["cone-torus"]["n"] == 3
    assert (cat["cone-torus"]["b"], cat["cone-torus"]["f"]) == (0, 2)
    assert (cat["edge-torus-over-circle"]["n"],
            cat["edge-torus-over-circle"]["b"],
            cat["edge-torus-over-circle"]["f"]) == (4, 1, 2)


def test_model_serialization_roundtrip():
    space = builtin_space("edge-circle-over-circle")
    data = json.loads(json.dumps(model_to_dict(space)))
    clone = model_from_dict(data)
    assert clone.n == space.n and clone.b == space.b and clone.f == space.f
    for p in (-1, 0, 1, 2):
        assert ih_dims(clone, p) == ih_dims(space, p)


def _assert_same_model(a, b):
    assert (a.name, a.n, a.b, a.f, a.description) == (b.name, b.n, b.b, b.f, b.description)
    assert (a.F, a.B, a.M, a.y_dims) == (b.F, b.B, b.M, b.y_dims)
    assert a.rho == b.rho


def _load(record):
    return model_from_dict(json.loads(json.dumps(record)))


@pytest.mark.parametrize("name", BUILTIN_NAMES + ("relabelled-3gon",))
def test_dense_model_files_load_to_equal_models(name):
    # files written before the sparse form (dense matrices, with Y) load
    # to the same model as the sparse record, and so do both forms with Y
    # left out or put in
    import random

    from edgehodge.cochain import complex_to_dict
    from edgehodge.stratified import _closed_model

    if name == "relabelled-3gon":
        rng = random.Random(5)
        space = _closed_model("edge-torus-over-3gon-circle", _relabelled_circle(3, rng),
                              tensor(_relabelled_circle(3, rng), _relabelled_circle(3, rng)), "")
    else:
        space = builtin_space(name)
    sparse = model_to_dict(space)
    assert "Y" not in sparse
    dense = dense_model_dict(space)
    dense_without_y = {k: v for k, v in dense.items() if k != "Y"}
    sparse_with_y = {**sparse, "Y": complex_to_dict(tensor(space.B, space.F))}
    for record in (sparse, dense, dense_without_y, sparse_with_y):
        _assert_same_model(_load(record), space)


def test_model_invariants_enforced():
    space = builtin_space("cone-torus")
    data = model_to_dict(space)
    data["n"] = 5
    with pytest.raises(ModelInvariantError):
        model_from_dict(data)


def test_m_may_stop_below_degree_n():
    # M has cells in degrees 0..n only; a cone model's M stops at f = n - 1
    for name in ("cone-circle", "cone-torus", "cone-sphere2"):
        space = _load(model_to_dict(builtin_space(name)))
        assert space.M.top_degree == space.f == space.n - 1


def test_perversity_arithmetic():
    p = Perversity(Fraction(1, 2))
    assert p + 1 == Fraction(3, 2)
    assert p - 2 == Fraction(-3, 2)
    assert Perversity("5/2") == Perversity(Fraction(5, 2))
    assert Perversity(1) > 0


def test_perversity_is_a_fraction():
    p = Perversity(5, 2)
    assert isinstance(p, Fraction) and p == Fraction(5, 2)
    assert hash(p) == hash(Fraction(5, 2)) and str(p) == "5/2"
    assert p.value is p
    assert not hasattr(p, "__dict__")
    # zero is falsy, as a Fraction is; readers test a perversity against None
    assert not Perversity(0) and str(Perversity(0)) == "0"


def _random_small_models(seed):
    # random fibres assembled from the basic pieces, then wrapped in the
    # cone and fibrewise-suspension constructions
    import random

    from edgehodge.cochain import direct_sum
    from edgehodge.stratified import (
        _closed_model,
        _cone_model,
        circle_complex,
        interval_complex,
        point_complex,
        sphere2_complex,
    )

    rng = random.Random(seed)
    pieces = [circle_complex(), sphere2_complex(), interval_complex()]
    fibre = rng.choice(pieces)
    if rng.random() < 0.5:
        fibre = tensor(fibre, rng.choice(pieces))
    if rng.random() < 0.5:
        fibre = direct_sum(fibre, rng.choice(pieces[:2]))
    yield _cone_model("random-cone", fibre, "")
    yield _closed_model("random-susp", point_complex(), fibre, "")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_small_models_monotonicity_and_duality(seed):
    for space in _random_small_models(seed):
        grid = [Fraction(n, 2) for n in range(-2, 2 * space.f + 3)]
        for i, p in enumerate(grid):
            for q in grid[: i + 1]:
                for k in range(space.n + 1):
                    r = ih_map_rank(space, p, q, k)
                    assert r <= min(ih_dim(space, p, k), ih_dim(space, q, k))
        fb = space.F.cohomology_dims()
        if space.name == "random-susp" and tuple(fb) == tuple(reversed(fb)):
            # duality asks the fibre itself to satisfy duality (closed
            # oriented link); interval-type factors rightly break it
            low, bar = middle_perversities(space.f)
            for s in (-1, 0, 1):
                for twok in range(-2 * space.n, 2 * space.n + 1):
                    k = Fraction(twok, 2)
                    d1 = Fraction(space.n, 2) - k
                    d2 = Fraction(space.n, 2) + k
                    if d1.denominator != 1 or d1 < 0 or d2 < 0:
                        continue
                    assert ih_dims(space, low + s)[int(d1)] == \
                        ih_dims(space, bar - s)[int(d2)]


def _ngon_model_file(n):
    """The JSON text of edge-torus-over-circle on n-gon circles."""
    from edgehodge.fibredec import build_fibre
    from edgehodge.stratified import _closed_model

    def circle():
        return build_fibre("circle", n).complex

    model = _closed_model(
        f"edge-torus-over-{n}gon-circle", circle(), tensor(circle(), circle()), "")
    return json.dumps(model_to_dict(model))


def _ngon_edge_torus_over_circle(n):
    return model_from_dict(json.loads(_ngon_model_file(n)))


def _assert_matches_edge_torus_over_circle(sub):
    # IH is a topological invariant: a subdivided model must reproduce the
    # built-in tables, including the induced-map ranks behind the
    # minimal-Hodge dimensions
    from edgehodge.weights import complete_l2, minimal_hodge_dims

    ref = builtin_space("edge-torus-over-circle")
    for p in range(-1, 4):
        assert ih_dims(sub, p) == ih_dims(ref, p)
    for a in (0, 1):
        assert minimal_hodge_dims(sub, a).dims == minimal_hodge_dims(ref, a).dims
    for k in range(sub.n + 1):
        assert complete_l2(sub, k) == complete_l2(ref, k)
    # Poincare duality pairs degree k at perversity mlow + s with degree
    # n - k at the complementary perversity mbar - s
    low, bar = middle_perversities(sub.f)
    for s in range(-2, 3):
        dual = ih_dims(sub, bar - s)
        assert ih_dims(sub, low + s) == dual[::-1]
        assert dual == ih_dims(ref, bar - s)


@pytest.mark.parametrize("n", [6, 8, 12, 16])
def test_subdivision_invariance_ladder_edge_torus_over_circle(n):
    # higher rungs of the ladder: the model's total complexes run to
    # thousands of rows, its minimal model stays Betti-sized; every rung
    # goes through its model file, whose size follows the nonzeros
    text = _ngon_model_file(n)
    if n == 8:
        assert len(text.encode()) < 2_000_000
    sub = model_from_dict(json.loads(text))
    _assert_matches_edge_torus_over_circle(sub)
    assert sub.minimal_model().M.dims == (1, 3, 3, 1)


def test_subdivision_invariance_four_gon_edge_torus_over_circle():
    sub = _ngon_edge_torus_over_circle(4)
    assert max(sub.total_complex(1).dims) == 712
    _assert_matches_edge_torus_over_circle(sub)


def _relabelled_circle(n, rng):
    """n-gon circle with vertices and edges permuted and every edge given
    a random orientation."""
    from edgehodge.cochain import CochainComplex, QMatrix

    vperm, eperm = list(range(n)), list(range(n))
    rng.shuffle(vperm)
    rng.shuffle(eperm)
    d0 = [[0] * n for _ in range(n)]
    for e in range(n):
        sign = rng.choice((1, -1))
        d0[eperm[e]][vperm[e]] = -sign
        d0[eperm[e]][vperm[(e + 1) % n]] = sign
    return CochainComplex((n, n), [QMatrix(n, n, d0)])


def _relabelled_edge_torus_over_circle(n, seed):
    import random

    from edgehodge.stratified import _closed_model

    rng = random.Random(seed)
    base = _relabelled_circle(n, rng)
    torus = tensor(_relabelled_circle(n, rng), _relabelled_circle(n, rng))
    return model_from_dict(model_to_dict(_closed_model(
        f"edge-torus-over-{n}gon-circle", base, torus, "")))


def _sum_map_model():
    # M, B and F are circles and ρ is a cochain map inducing the pullback
    # along (θ, φ) -> θ + φ: H^1(M) -> H^1(B ⊗ F) sends the generator to
    # dθ + dφ, which has parts in fibre degrees 0 and 1 of the same Y^1.
    # ρ = (i_B ⊗ i_F) ∘ σ ∘ p_M with σ that map on cohomology.
    from edgehodge.cochain import (
        ComplexMap,
        QMatrix,
        cohomology_inclusion,
        cohomology_projection,
        tensor_map_blocks,
    )
    from edgehodge.stratified import EdgeSpaceModel, circle_complex

    m, b, f = circle_complex(), circle_complex(), circle_complex()
    y = tensor(b, f)
    p_m = cohomology_projection(m)
    i_b, i_f = cohomology_inclusion(b), cohomology_inclusion(f)
    y_h = tensor(i_b.source, i_f.source)
    sigma = ComplexMap(p_m.target, y_h, [QMatrix(1, 1, [[1]]), QMatrix(2, 1, [[1], [1]])])
    i_y = ComplexMap(y_h, y, tensor_map_blocks(i_b, i_f))
    rho = i_y.compose(sigma).compose(p_m)
    return EdgeSpaceModel("circle-sum-map", 3, 1, 1, f, b, m, rho.maps)


def _zero_restriction_model():
    # every class of M restricts to zero, so ρ' has a kernel in each degree
    from edgehodge.cochain import ComplexMap
    from edgehodge.stratified import EdgeSpaceModel, circle_complex, torus_complex

    b, f = circle_complex(), circle_complex()
    y = tensor(b, f)
    m = torus_complex()
    return EdgeSpaceModel("torus-zero-restriction", 3, 1, 1, f, b, m,
                          ComplexMap.zero(m, y).maps)


def test_sum_map_model_restriction_spans_two_fibre_degrees():
    # rows of Y'^1 in fibre degrees above c = -1, 0, 1: both, block (0, 1), none;
    # the class dθ + dφ is seen by the block (0, 1) row on its own
    table = _sum_map_model().rank_table()
    assert table.rows[1] == (2, 1, 0)
    assert table.ranks[1] == (1, 1, 0)


@pytest.mark.parametrize("build", [
    _sum_map_model, _zero_restriction_model,
    *(lambda name=name: builtin_space(name) for name in BUILTIN_NAMES),
], ids=["circle-sum-map", "torus-zero-restriction", *BUILTIN_NAMES])
def test_dims_table_holds_every_map_rank(build):
    # every cutoff pair c1 <= c2 has the ranks of IH^k at c1 -> IH^k at c2
    # for k = 0..n, equal to the table's formula and to the chain-level
    # rank of Tot(c1) -> Tot(c2) on cohomology
    from edgehodge.cochain import induced_map_rank

    space = build()
    table = space.rank_table()
    cuts = range(-1, space.f + 1)
    assert set(table.dims) == {(c1, c2) for c1 in cuts for c2 in cuts if c1 <= c2}
    for (c1, c2), dims in table.dims.items():
        assert len(dims) == space.n + 1
        phi = space.total_map(c1, c2)
        for k, rank in enumerate(dims):
            assert rank == table.map_rank(k, c1, c2) == induced_map_rank(phi, k), (c1, c2, k)


def test_ih_map_rank_checks_its_arguments_before_the_table(monkeypatch):
    from edgehodge.stratified import EdgeSpaceModel

    space = builtin_space("susp-torus")

    def refuse(self):
        raise AssertionError("an invalid query read the rank table")

    monkeypatch.setattr(EdgeSpaceModel, "rank_table", refuse)
    with pytest.raises(PerversityRangeError):
        ih_map_rank(space, 0, 1, 1)
    with pytest.raises(ValueError):
        ih_map_rank(space, 1, 0, -1)
    monkeypatch.undo()
    # a degree above n still answers 0
    assert ih_map_rank(space, 1, 0, space.n + 1) == 0


def _minimal_model_cases():
    yield "circle-sum-map", _sum_map_model
    yield "torus-zero-restriction", _zero_restriction_model
    for name in BUILTIN_NAMES:
        yield name, lambda name=name: builtin_space(name)
    for n, seed in ((3, 11), (3, 12), (4, 13)):
        yield f"{n}gon-seed{seed}", \
            lambda n=n, seed=seed: _relabelled_edge_torus_over_circle(n, seed)
    for seed in (1, 2, 3):
        for i in (0, 1):
            yield f"random-seed{seed}-{i}", \
                lambda seed=seed, i=i: list(_random_small_models(seed))[i]


@pytest.mark.parametrize("build", [b for _, b in _minimal_model_cases()],
                         ids=[i for i, _ in _minimal_model_cases()])
def test_minimal_model_matches_chain_level_reference(build):
    # IH and induced-map ranks read from the minimal model must equal the
    # ones of the model's own Mayer-Vietoris total complexes
    from edgehodge.cochain import induced_map_rank

    space = build()
    minimal = space.minimal_model()
    assert minimal.minimal_model() is minimal
    assert minimal.rank_table() == space.rank_table()
    assert minimal.F.dims == space.F.cohomology_dims()
    assert minimal.B.dims == space.B.cohomology_dims()
    assert minimal.M.dims == space.M.cohomology_dims()
    pad = space.n + 1
    for c in range(-1, space.f + 1):
        ref = tuple(cohomology_dims(space.total_complex(c))) + (0,) * pad
        assert ih_dims(space, space.f - 1 - c) == ref[:pad], c
        assert sum(minimal.total_complex(c).dims) <= sum(space.total_complex(c).dims)
    for c1 in range(-1, space.f + 1):
        for c2 in range(c1 + 1, space.f + 1):
            phi = space.total_map(c1, c2)
            for k in range(space.n + 1):
                ref = induced_map_rank(phi, k)
                assert induced_map_rank(minimal.total_map(c1, c2), k) == ref
                assert ih_map_rank(space, space.f - 1 - c1, space.f - 1 - c2, k) == ref


def _every_query(space):
    """Ask ``space`` every kind of query: IH, induced-map ranks, the max,
    min and minimal-Hodge weights and the complete-metric verdicts."""
    from edgehodge.weights import complete_l2, minimal_hodge_dims, weighted_derham_dims

    grid = [Fraction(n, 2) for n in range(-2, 2 * space.f + 3)]
    for p in grid:
        ih_dims(space, p)
        for k in range(space.n + 1):
            ih_map_rank(space, p, grid[0], k)
    for a in (Fraction(n, 4) for n in range(-6, 7)):
        weighted_derham_dims(space, a, "max")
        weighted_derham_dims(space, a, "min")
        minimal_hodge_dims(space, a)
    for k in range(space.n + 2):
        complete_l2(space, k)


def test_no_model_forms_its_boundary(monkeypatch):
    # Y = B ⊗ F is never formed: building the built-ins, loading records
    # with and without Y and answering every query call ``tensor`` on no
    # model's own (B, F); the built-ins still build their M and torus link
    from edgehodge import cochain, stratified

    records = [model_to_dict(builtin_space(name)) for name in BUILTIN_NAMES]
    records += [dense_model_dict(builtin_space(name)) for name in BUILTIN_NAMES]
    with_y = dense_model_dict(_relabelled_edge_torus_over_circle(3, 5))
    assert "Y" in with_y and "Y" in records[-1]
    records += [with_y, json.loads(_ngon_model_file(8))]
    records = [json.loads(json.dumps(r)) for r in records]

    calls = []
    inner = cochain.tensor

    def recording(c1, c2):
        calls.append((c1, c2))
        return inner(c1, c2)
    monkeypatch.setattr(cochain, "tensor", recording)
    monkeypatch.setattr(stratified, "tensor", recording)
    models = [builtin_space(name) for name in BUILTIN_NAMES]
    assert calls
    models += [model_from_dict(r) for r in records]
    for space in models:
        _every_query(space)
    for space in models:
        assert not any(c1 is space.B and c2 is space.F for c1, c2 in calls), space.name


def test_loaded_ladder_model_memory():
    # a model keeps B, F, M and ρ and no Y: the n = 8 rung holds under
    # 3.5 MB once loaded (5.4 MB when it kept Y)
    import gc
    import tracemalloc

    data = json.loads(_ngon_model_file(8))
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        space = model_from_dict(data)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert space.y_dims == (1024, 3072, 3072, 1024)
    assert held <= 3.5e6, held


@pytest.mark.parametrize("build", [
    *(lambda name=name: builtin_space(name) for name in BUILTIN_NAMES),
    # the subdivided-edge model, Y carried in its record
    lambda: model_from_dict(json.loads(json.dumps(
        dense_model_dict(_relabelled_edge_torus_over_circle(3, 5))))),
], ids=[*BUILTIN_NAMES, "subdivided-edge"])
def test_every_query_reduces_each_complex_once(monkeypatch, build):
    # the rank table reads ρ' by replaying M's reduction on the rows of
    # p_Y ρ, and p_B, p_F come from the reductions of B and F, so answering
    # everything reduces M, B and F once each (whatever reads their Betti
    # numbers first) and never forms the cocycle representatives of M
    from edgehodge import cochain

    space = build()
    reduced, represented = [], []
    reduce_complex, representatives = cochain.reduce_complex, cochain.Reduction.representatives

    def counted_reduce(c):
        red = reduce_complex(c)
        reduced.append((c, red))
        return red

    def counted_representatives(red, k, n):
        represented.append(red)
        return representatives(red, k, n)

    monkeypatch.setattr(cochain, "reduce_complex", counted_reduce)
    monkeypatch.setattr(cochain.Reduction, "representatives", counted_representatives)
    _every_query(space)

    read = [c for c, _ in reduced]
    assert len(read) == 3
    for c in (space.M, space.B, space.F):
        assert sum(x is c for x in read) == 1
    m_reduction = next(red for c, red in reduced if c is space.M)
    assert all(red is not m_reduction for red in represented)
