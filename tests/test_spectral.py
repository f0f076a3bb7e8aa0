import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from edgehodge.errors import ModelInvariantError
from edgehodge.spectral import (
    FibreSpectrum,
    boundary_contacts,
    critical_roots,
    essentially_selfadjoint,
    indicial_roots,
    l2_cutoff,
    sphere2_spectrum,
    unique_closed_extension_d,
)

from oracles import indicial_pair_closed_form

TORUS = FibreSpectrum(
    [[(0, 1), (1, 2)], [(0, 2), (1, 4)], [(0, 1), (1, 2)]],
    "closed-form", betti=(1, 2, 1))
CIRCLE = FibreSpectrum(
    [[(0, 1), (1, 2)], [(0, 1), (1, 2)]], "closed-form", betti=(1, 1))

small_f = st.integers(min_value=0, max_value=8)
small_k = st.integers(min_value=0, max_value=8)
small_a = st.fractions(min_value=-6, max_value=6, max_denominator=4)
small_lam2 = st.fractions(min_value=0, max_value=20, max_denominator=4)


def test_indicial_roots_factorization_example():
    pair = indicial_roots(1, 0, 0, 0)
    assert (pair.gamma_minus, pair.gamma_plus) == (-1, 0)
    assert pair.exact and not pair.double_root


def test_indicial_roots_double():
    pair = indicial_roots(2, 0, 1, 0)
    assert pair.double_root
    assert pair.gamma_minus == pair.gamma_plus == -1


def test_indicial_roots_exact_discriminant():
    pair = indicial_roots(3, Fraction(1, 2), 1, 1)
    assert pair.exact
    assert (pair.gamma_minus, pair.gamma_plus) == (-2, 0)


def test_indicial_roots_float_fallback():
    pair = indicial_roots(2, 0, 0, 1)
    assert not pair.exact
    lo, hi = indicial_pair_closed_form(2, Fraction(0), 0, 1)
    assert math.isclose(pair.gamma_minus, lo, rel_tol=1e-14)
    assert math.isclose(pair.gamma_plus, hi, rel_tol=1e-14)


@given(small_f, small_k, small_a, small_lam2)
def test_sum_rule(f, k, a, lam2):
    pair = indicial_roots(f, a, k, lam2)
    if pair.exact:
        assert pair.gamma_minus + pair.gamma_plus == 2 * a - f
    else:
        assert abs(pair.sum_rule_defect(f)) <= 1e-12 * (1 + abs(float(2 * a - f)))


@given(small_f, small_k, small_a)
def test_zero_eigenvalue_factorization(f, k, a):
    pair = indicial_roots(f, a, k, 0)
    assert pair.exact
    assert [pair.gamma_minus, pair.gamma_plus] == sorted(
        (Fraction(-k), Fraction(k) + 2 * a - f))


@given(small_f, small_k, st.integers(min_value=-4, max_value=4), small_lam2)
def test_reflection_invariance_of_discriminant(f, k, two_a, lam2):
    # the window quantity is symmetric under k -> f - 2a - k when 2a is
    # an integer, so the reflected degree sees the same discriminant
    a = Fraction(two_a, 2)
    kr = Fraction(f) - 2 * a - k
    if kr.denominator != 1:
        return
    d1 = Fraction(f - 2 * a - 2 * k) ** 2 + 4 * lam2
    d2 = Fraction(f) - 2 * a - 2 * int(kr)
    d2 = d2 ** 2 + 4 * lam2
    assert d1 == d2


@given(small_f, small_k, small_a, small_lam2)
def test_window_quantity_equivalent_to_root_location(f, k, a, lam2):
    # the pair is critical iff its roots fall strictly inside the
    # window (a-(f+1)/2, a-(f-1)/2); both formulations must agree
    pair = indicial_roots(f, a, k, lam2)
    quantity = Fraction(f - 2 * a - 2 * k) ** 2 + 4 * lam2
    lo = a - Fraction(f + 1, 2)
    hi = a - Fraction(f - 1, 2)
    if pair.exact:
        in_window = lo < pair.gamma_minus and pair.gamma_plus < hi
        assert (quantity < 1) == in_window
    else:
        if abs(float(quantity) - 1.0) > 1e-9:
            in_window = float(lo) < pair.gamma_minus and pair.gamma_plus < float(hi)
            assert (float(quantity) < 1) == in_window


def test_critical_roots_parity_window_empty():
    assert critical_roots(1, 0, CIRCLE) == []
    assert essentially_selfadjoint(1, 0, CIRCLE)


def test_critical_roots_torus_harmonic_one_forms():
    crits = critical_roots(2, 0, TORUS)
    assert len(crits) == 1
    pair = crits[0]
    assert pair.degree == 1 and pair.lam2 == 0
    assert pair.double_root and pair.gamma_minus == -1
    assert not essentially_selfadjoint(2, 0, TORUS)


def test_critical_roots_sphere_spectral_gap():
    assert critical_roots(2, 0, sphere2_spectrum()) == []
    assert essentially_selfadjoint(2, 0, sphere2_spectrum())


def test_boundary_contact_classified_noncritical():
    spec = FibreSpectrum([[(0, 1)], [(Fraction(1, 4), 1)]], "closed-form")
    assert critical_roots(2, 0, spec) == []
    assert boundary_contacts(2, 0, spec) == [(1, Fraction(1, 4))]


def test_unique_closed_extension_examples():
    assert unique_closed_extension_d(3, 0, (1, 0, 0, 1)) is True
    assert unique_closed_extension_d(2, 0, (1, 2, 1)) is False
    assert unique_closed_extension_d(2, 1, (1, 2, 1)) is False  # q_a = 0


def test_selfadjoint_implies_unique_extension():
    for spec in (TORUS, CIRCLE, sphere2_spectrum()):
        for f in range(1, 5):
            for n in range(-4, 5):
                a = Fraction(n, 2)
                if essentially_selfadjoint(f, a, spec):
                    assert unique_closed_extension_d(f, a, spec.betti)


def test_l2_cutoff_examples():
    member, delta = l2_cutoff(0, 1, 0)
    assert member and delta == 1
    member, _ = l2_cutoff(Fraction(-1, 2), 1, 0)
    assert not member  # strict inequality at the threshold
    member, delta = l2_cutoff(-1, 1, 0)
    assert not member and delta == 0


def test_spectrum_validation():
    with pytest.raises(ModelInvariantError):
        FibreSpectrum([[(-1, 1)]], "closed-form")
    with pytest.raises(ModelInvariantError):
        FibreSpectrum([[(1, 1), (0, 1)]], "closed-form")  # not sorted
    with pytest.raises(ModelInvariantError):
        FibreSpectrum([[(0, 2)]], "closed-form", betti=(1,))


def test_spectrum_serialization_roundtrip():
    data = TORUS.to_dict()
    clone = FibreSpectrum.from_dict(data)
    assert clone.levels == TORUS.levels
    s2 = sphere2_spectrum()
    assert FibreSpectrum.from_dict(s2.to_dict()).levels == s2.levels


def test_spectrum_roundtrip_preserves_numeric_vs_exact():
    mixed = FibreSpectrum([[(0, 1), (0.9872148307666713, 1)]], "discrete")
    clone = FibreSpectrum.from_dict(mixed.to_dict())
    assert clone.levels == mixed.levels
    v0, v1 = clone.levels[0][0][0], clone.levels[0][1][0]
    assert isinstance(v0, Fraction) and isinstance(v1, float)


def _full_scan(f, a, spec):
    """Reference predicates: every mode of every degree is examined."""
    a = Fraction(a)
    crit, contacts = [], []
    for q in spec.degrees():
        base = Fraction(f - 2 * a - 2 * q) ** 2
        for lam2, _mult in spec.eigenvalues(q):
            if isinstance(lam2, Fraction):
                quantity = base + 4 * lam2
            else:
                quantity = float(base) + 4.0 * lam2
            if quantity < 1:
                crit.append(indicial_roots(f, a, q, lam2))
            elif quantity == 1:
                contacts.append((q, lam2))
    return crit, contacts


@st.composite
def window_cases(draw):
    """(f, a, spectrum) whose levels mix Fractions and floats, repeat
    values, and sit on or next to the window boundary of their degree."""
    f = draw(st.integers(min_value=0, max_value=4))
    # f - 2a - 2q0 = t puts the window boundary inside degree q0's levels
    q0 = draw(st.integers(min_value=0, max_value=f))
    t = draw(st.fractions(min_value=-1, max_value=1, max_denominator=12))
    a = Fraction(f - 2 * q0, 2) - t / 2
    levels = []
    for q in range(f + 1):
        contact = (1 - Fraction(f - 2 * a - 2 * q) ** 2) / 4
        # a Fraction above the contact but below every float above it
        near = [contact, contact + Fraction(1, 2 ** 1100), float(contact),
                math.nextafter(float(contact), 0.0),
                math.nextafter(float(contact), math.inf)] if contact >= 0 else []
        value = st.one_of(
            st.sampled_from(near + [Fraction(0)]),
            st.fractions(min_value=0, max_value=3, max_denominator=12),
            st.floats(min_value=0, max_value=3))
        vals = draw(st.lists(value, max_size=8))
        vals = [v for v in vals if v >= 0]
        mults = draw(st.lists(st.integers(1, 3), min_size=len(vals), max_size=len(vals)))
        levels.append(list(zip(sorted(vals), mults)))
    return f, a, FibreSpectrum(levels, "test")


@settings(max_examples=300)
@given(window_cases())
def test_window_predicates_match_full_scan(case):
    f, a, spec = case
    crit, contacts = _full_scan(f, a, spec)
    assert critical_roots(f, a, spec) == crit
    assert boundary_contacts(f, a, spec) == contacts
    assert essentially_selfadjoint(f, a, spec) == (not crit)


def test_window_predicates_accept_an_infinite_level():
    # "1e999" in a spectrum file parses to inf; the scan must still stop
    spec = FibreSpectrum.from_dict({"degrees": [[["0", 1], ["1e999", 1]]]})
    assert boundary_contacts(1, 0, spec) == [(0, Fraction(0))]
    assert critical_roots(1, 0, spec) == [] and essentially_selfadjoint(1, 0, spec)
