"""The cone decisions of ``spectral`` and ``radial`` are integer
cross-multiplications; they must answer exactly as the Fraction bodies
in ``oracles`` do, with equal Fractions and bit-identical floats."""

import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from edgehodge import radial, spectral
from edgehodge.cli import main
from edgehodge.spectral import FibreSpectrum

from oracles import (
    indicial_roots_fraction,
    local_cohomology_fraction,
    pullback_norm_fraction,
    system_has_roots_fraction,
    unique_closed_extension_fraction,
    window_modes_fraction,
)


def _key(x):
    """A value with its type; floats by their hex, so NaN equals NaN and
    0.0 and -0.0 differ."""
    if isinstance(x, float):
        return "float", x.hex()
    if isinstance(x, (tuple, list)):
        return type(x).__name__, tuple(_key(y) for y in x)
    return type(x).__name__, x


def _pair_key(p):
    return _key((p.gamma_minus, p.gamma_plus, p.degree, p.lam2, p.weight,
                 p.double_root, p.exact))


def _outcome(fn, *args):
    """fn's result, or the type of the exception it raised."""
    try:
        return "value", fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return "raised", type(exc)


@st.composite
def weights(draw):
    """a as an int, a Fraction or a string; numerators and denominators up
    to 10^6, a few denominators of 40 digits, and negative values."""
    if draw(st.integers(0, 9)) == 0:
        den = draw(st.integers(10 ** 39, 10 ** 40))
        num = draw(st.integers(-3 * den, 3 * den))
    else:
        den = draw(st.integers(1, 10 ** 6))
        num = draw(st.one_of(st.integers(-10 ** 6, 10 ** 6),
                             st.integers(-4, 4).map(lambda t: t * den // 2)))
    a = Fraction(num, den)
    form = draw(st.sampled_from(("fraction", "str", "int")))
    if form == "str":
        return str(a)
    if form == "int":
        return int(a)
    return a


FLOATS = [0.0, 5e-324, 1e308, math.inf, math.nan]


def lam2_values(f: int, a):
    """lambda^2 values: exact Fractions (some on the window boundary of a
    degree, some too small for a float), the special floats and others."""
    a = Fraction(a)
    contacts = [(1 - Fraction(f - 2 * a - 2 * q) ** 2) / 4 for q in range(f + 2)]
    contacts = [c for c in contacts if c >= 0]
    exact = st.one_of(
        st.fractions(min_value=0, max_value=10 ** 6, max_denominator=10 ** 6),
        st.sampled_from(contacts + [Fraction(0), Fraction(2, 10 ** 400)])
        if contacts else st.just(Fraction(2, 10 ** 400)))
    floats = st.one_of(st.sampled_from(FLOATS),
                       st.floats(min_value=0, max_value=4),
                       st.sampled_from([float(c) for c in contacts] or [0.25]))
    return st.one_of(exact, floats)


@st.composite
def cone_cases(draw):
    f = draw(st.integers(0, 6))
    k = draw(st.integers(0, f + 1))
    a = draw(weights())
    lam2 = draw(lam2_values(f, a))
    levels = []
    for _ in range(f + 1):
        vals = draw(st.lists(lam2_values(f, a), max_size=6))
        nans = [v for v in vals if v != v]
        # ascending, as FibreSpectrum requires; a NaN compares false to all
        levels.append([(v, 1) for v in sorted(v for v in vals if v == v) + nans])
    betti = tuple(draw(st.lists(st.integers(0, 3), max_size=f + 2)))
    return f, k, a, lam2, FibreSpectrum(levels, "test"), betti


def _check_against_fraction_bodies(f, k, a, lam2, spec, betti):
    assert (_outcome(lambda: [_key(m) for m in spectral._window_modes(f, a, spec)])
            == _outcome(lambda: [_key(m) for m in window_modes_fraction(f, a, spec)]))
    got = _outcome(spectral.indicial_roots, f, a, k, lam2)
    want = _outcome(indicial_roots_fraction, f, a, k, lam2)
    assert got[0] == want[0]
    if got[0] == "value":
        assert _pair_key(got[1]) == _pair_key(want[1])
        pair = got[1]
        if pair.exact:
            for gm, gp in [(pair.gamma_minus, pair.gamma_plus),
                           (pair.gamma_minus + Fraction(1, 2), pair.gamma_plus),
                           (pair.gamma_minus, pair.gamma_plus - 1)]:
                assert (radial.system_has_roots(k, lam2, f, a, gm, gp)
                        == system_has_roots_fraction(k, lam2, f, a, gm, gp))
    else:
        assert got[1] is want[1]
    assert (spectral.unique_closed_extension_d(f, a, betti)
            is unique_closed_extension_fraction(f, a, betti))
    table, ref = radial.local_cohomology(betti, f, a), local_cohomology_fraction(betti, f, a)
    assert table == ref and type(table.a) is Fraction
    pb, ref_pb = radial.pullback_norm(k, f, a), pullback_norm_fraction(k, f, a)
    assert pb == ref_pb and type(pb.value) is type(ref_pb.value)


@settings(max_examples=300, deadline=None)
@given(cone_cases())
def test_integer_decisions_match_the_fraction_bodies(case):
    _check_against_fraction_bodies(*case)


@pytest.mark.parametrize("f, k, a, lam2", [
    # f - 2a - 2k = 0 and a discriminant that is not a square but rounds
    # to 0.0: no double root
    (1, 0, Fraction(1, 2), Fraction(2, 10 ** 400)),
    (3, 1, "1/2", Fraction(1, 3 * 10 ** 400)),
    (2, 0, 1, 5e-324),
    # a 40-digit denominator, where the float centre (2n - fd) / (2d)
    # must be rounded once, not after rounding its numerator
    (1, 0, "3777667129286463041923908804562942587877/"
           "4610508896645765440902631482385465659308", 0.5),
    # (N/d)^2 overflows a float
    (0, 0, Fraction(10 ** 400, 3), 0.5),
    (0, 0, Fraction(10 ** 400, 3), Fraction(1, 2)),
])
def test_integer_decisions_match_on_rounding_edges(f, k, a, lam2):
    spec = FibreSpectrum([[(lam2, 1)] for _ in range(f + 1)], "test")
    _check_against_fraction_bodies(f, k, a, lam2, spec, (1,) * (f + 1))


def test_q_equal_to_one_is_a_boundary_contact():
    # f = 1, a = 1/2, k = 0: (f - 2a - 2k)^2 + 4 lambda^2 = 0 + 1 exactly
    quarter = Fraction(1, 4)
    spec = FibreSpectrum([[(Fraction(0), 1), (quarter, 1)], [(Fraction(0), 1)]], "test")
    assert list(spectral._window_modes(1, Fraction(1, 2), spec)) == [
        (0, Fraction(0), Fraction(0)), (0, quarter, Fraction(1))]
    crit, contacts = spectral.window_roots(1, Fraction(1, 2), spec)
    assert [p.lam2 for p in crit] == [0] and contacts == [(0, quarter)]
    assert type(contacts[0][1]) is Fraction


def test_scaled_circle_window_bytes_are_frozen(capsys):
    # lambda^2 = 1/4 exactly, computed in floats as 0.24999999999999994; the
    # float window lists it as critical.  These bytes stay until the exact
    # product-fibre window decides the case.
    want = (Path(__file__).parent / "data" / "spectral_circle6_scale12.json").read_text()
    assert main(["spectral", "--f", "1", "--a", "1/2", "--fibre-kind", "circle",
                 "--sizes", "6", "--scale", "12", "--json"]) == 0
    assert capsys.readouterr().out == want
