from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from edgehodge import report, spectral
from edgehodge.stratified import BUILTIN_NAMES, builtin_space, ih_dims, middle_perversities
from edgehodge.weights import (
    complete_l2,
    max_perversity,
    min_perversity,
    minimal_hodge_dims,
    weighted_derham_dims,
)

from oracles import weight_perversities


WEIGHTS = [Fraction(n, 2) for n in range(-4, 5)]


def test_weight_zero_gives_middle_perversities():
    for name in BUILTIN_NAMES:
        space = builtin_space(name)
        low, bar = middle_perversities(space.f)
        rmax = weighted_derham_dims(space, 0, "max")
        rmin = weighted_derham_dims(space, 0, "min")
        assert rmax.perversity.value == bar and rmax.dims == ih_dims(space, bar)
        assert rmin.perversity.value == low and rmin.dims == ih_dims(space, low)


def test_even_fibre_half_weights_coincide():
    for name in ("cone-torus", "susp-torus", "edge-torus-over-circle"):
        space = builtin_space(name)
        low, bar = middle_perversities(space.f)
        for a, target in ((Fraction(1, 2), low), (Fraction(-1, 2), bar)):
            rmax = weighted_derham_dims(space, a, "max")
            rmin = weighted_derham_dims(space, a, "min")
            assert rmax.dims == rmin.dims == ih_dims(space, target)


def test_minimal_hodge_weight_zero_is_middle_image_rank():
    space = builtin_space("cone-torus")
    rep = minimal_hodge_dims(space, 0)
    assert rep.dims == (1, 0, 0, 0)
    assert rep.dims[1] == 0  # source group vanishes in degree one


def test_minimal_hodge_sandwich_all_builtins():
    for name in BUILTIN_NAMES:
        space = builtin_space(name)
        for a in WEIGHTS:
            mx = weighted_derham_dims(space, a, "max").dims
            mn = weighted_derham_dims(space, a, "min").dims
            mh = minimal_hodge_dims(space, a).dims
            assert all(h <= min(x, m) for h, x, m in zip(mh, mx, mn)), (name, a)


def test_minimal_hodge_collapse_under_unique_extension():
    for name in BUILTIN_NAMES:
        space = builtin_space(name)
        fb = space.F.cohomology_dims()
        for a in WEIGHTS:
            if spectral.unique_closed_extension_d(space.f, a, fb):
                mx = weighted_derham_dims(space, a, "max").dims
                mn = weighted_derham_dims(space, a, "min").dims
                mh = minimal_hodge_dims(space, a).dims
                assert mx == mn == mh, (name, a)


QUARTER_WEIGHTS = [Fraction(n, 4) for n in range(-12, 13)]


def _duality(space) -> tuple[bool, bool]:
    """Whether, for every a in QUARTER_WEIGHTS, dim H^k_max(a) equals
    dim H^(n-k)_min(-a), and whether the minimal Hodge dims at -a are
    those at a in reverse order."""
    ext = all(weighted_derham_dims(space, a, "max").dims
              == weighted_derham_dims(space, -a, "min").dims[::-1]
              for a in QUARTER_WEIGHTS)
    hodge = all(minimal_hodge_dims(space, -a).dims
                == minimal_hodge_dims(space, a).dims[::-1]
                for a in QUARTER_WEIGHTS)
    return ext, hodge


@pytest.mark.parametrize("name", ["susp-torus", "edge-circle-over-circle",
                                  "edge-torus-over-circle"])
def test_weighted_duality_on_closed_builtins(name):
    assert _duality(builtin_space(name)) == (True, True)


@pytest.mark.parametrize("name", ["cone-circle", "cone-torus", "cone-sphere2"])
def test_weighted_duality_fails_on_cone_models(name):
    # the cone models have boundary at x = 1, so neither duality holds
    assert _duality(builtin_space(name)) == (False, False)


def test_perversity_order_min_side_dominates():
    for f in range(0, 7):
        for a in WEIGHTS:
            assert min_perversity(f, a).value >= max_perversity(f, a).value


# negative, integral and large-denominator weights
dictionary_weights = st.one_of(
    st.integers(-10**40, 10**40).map(Fraction),
    st.fractions(max_denominator=10**30),
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
)


@given(st.integers(0, 6), dictionary_weights)
def test_integer_dictionary_matches_bracket_form(f, a):
    want_max, want_min = weight_perversities(f, a)
    p_max, p_min = max_perversity(f, a), min_perversity(f, a)
    assert p_max.value == want_max and p_min.value == want_min
    assert p_min >= p_max


def test_complete_l2_even_base_always_finite():
    for name in ("cone-torus", "cone-circle", "susp-torus", "cone-sphere2"):
        space = builtin_space(name)
        assert space.b % 2 == 0
        for k in range(space.n + 1):
            assert complete_l2(space, k).finite


def test_complete_l2_odd_base_torus_infinite_set():
    space = builtin_space("edge-torus-over-circle")
    infinite = [k for k in range(space.n + 1) if not complete_l2(space, k).finite]
    assert infinite == [1, 2, 3]


def test_complete_l2_finite_degrees_match_engine():
    space = builtin_space("edge-torus-over-circle")
    for k in (0, 4):
        ans = complete_l2(space, k)
        assert ans.finite
        p = Fraction(space.f) + Fraction(space.b, 2) - k
        assert ans.perversity.value == p
        assert ans.dim == ih_dims(space, p)[k]
        assert ans.verdict == f"Finite({ans.dim})"


def test_complete_l2_half_integer_perversity_path():
    # odd base: the dictionary produces genuinely half-integer perversities
    space = builtin_space("edge-torus-over-circle")
    ans = complete_l2(space, 0)
    assert ans.perversity.value == Fraction(5, 2)


def test_monotone_in_weight_on_cone_models():
    for name in ("cone-circle", "cone-torus", "cone-sphere2"):
        space = builtin_space(name)
        for ext in ("max", "min"):
            prev = None
            for a in WEIGHTS:
                dims = weighted_derham_dims(space, a, ext).dims
                if prev is not None:
                    assert all(d <= p for d, p in zip(dims, prev)), (name, ext, a)
                prev = dims


def test_bad_extension_name_rejected():
    with pytest.raises(ValueError):
        weighted_derham_dims(builtin_space("cone-circle"), 0, "both")


def test_complete_l2_perversity_zero_prints_as_zero():
    # degree 1 of the cone over a circle sits at perversity 0, which is falsy
    space = builtin_space("cone-circle")
    assert complete_l2(space, 1).perversity == 0
    assert report.complete_l2_fields(space, 1)["perversity"] == "0"
