"""One cone window: every weight decision reads floor and ceil of
lo = (f - 1)/2 - a from ``stratified.weight_cuts``, and answers as the
parity and bracket cases and the Fraction bodies in ``oracles`` do."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from edgehodge import radial, spectral, stratified, weights
from edgehodge.stratified import builtin_space, middle_perversities, weight_cuts

import oracles
from oracles import (
    local_cohomology_fraction,
    max_perversity,
    min_perversity,
    pullback_norm_fraction,
    unique_closed_extension_fraction,
    weight_perversities,
    window_position_fraction,
)


@st.composite
def windows(draw):
    f = draw(st.integers(0, 8))
    a = Fraction(draw(st.integers(-200, 200)), draw(st.integers(1, 12)))
    betti = tuple(draw(st.lists(st.integers(0, 3), min_size=f + 1, max_size=f + 1)))
    return f, a, betti


@settings(max_examples=400, deadline=None)
@given(windows())
def test_every_window_reader_matches_the_case_by_case_oracles(case):
    f, a, betti = case
    floor_lo, ceil_lo = weight_cuts(f, a)
    lo = Fraction(f - 1, 2) - a
    assert floor_lo <= lo <= ceil_lo and ceil_lo - floor_lo == (lo.denominator != 1)
    p_max, p_min = weights._perversities(f, a)
    assert (p_max, p_min) == (max_perversity(f, a), min_perversity(f, a))
    assert (p_max, p_min) == weight_perversities(f, a)
    assert radial.local_cohomology(betti, f, a) == local_cohomology_fraction(betti, f, a)
    assert (spectral.unique_closed_extension_d(f, a, betti)
            is unique_closed_extension_fraction(f, a, betti))
    for k in range(-1, f + 3):
        assert radial.window_position(k, f, a) == window_position_fraction(k, f, a)
        pb = radial.pullback_norm(k, f, a)
        assert pb == pullback_norm_fraction(k, f, a)
        # pullback_norm decides from e + 1 on its own; its cut is the max one
        assert pb.finite is (k <= ceil_lo)


@pytest.mark.parametrize("f", range(0, 9))
def test_middle_perversities_are_the_window_at_weight_zero(f):
    assert middle_perversities(f) == oracles.middle_perversities(f)
    assert middle_perversities(f) == (min_perversity(f, 0), max_perversity(f, 0))


def test_weights_keeps_no_case_by_case_dictionary():
    assert not hasattr(weights, "_max_value") and not hasattr(weights, "_min_value")
    for module in (weights, radial, spectral):
        assert module.weight_cuts is stratified.weight_cuts, module.__name__


SPACE = builtin_space("edge-torus-over-circle")

READERS = {
    "stratified.middle_perversities": lambda: middle_perversities(2),
    "weights.weighted_derham_dims": lambda: weights.weighted_derham_dims(SPACE, "1/3", "max"),
    "weights.minimal_hodge_dims": lambda: weights.minimal_hodge_dims(SPACE, "1/3"),
    "weights._weight_reports": lambda: weights._weight_reports(SPACE, Fraction(1, 3)),
    "radial.local_cohomology": lambda: radial.local_cohomology((1, 2, 1), 2, "1/3"),
    "radial.window_position": lambda: radial.window_position(1, 2, "1/3"),
    "radial.min_membership": lambda: radial.min_membership(1, 2, "1/3", 1),
    "spectral.unique_closed_extension_d":
        lambda: spectral.unique_closed_extension_d(2, "1/3", (1, 2, 1)),
}


@pytest.mark.parametrize("reader", READERS)
def test_each_reader_decides_through_weight_cuts(monkeypatch, reader):
    # every module that imports weight_cuts gets the counting wrapper, so
    # a reader that decided its window some other way would count 0
    calls = []
    inner = stratified.weight_cuts

    def counting(f, a):
        calls.append((f, a))
        return inner(f, a)
    for module in (stratified, weights, radial, spectral):
        monkeypatch.setattr(module, "weight_cuts", counting)
    READERS[reader]()
    assert calls, reader
    assert all(Fraction(a) in (0, Fraction(1, 3)) for _, a in calls), calls
