import bisect
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from edgehodge import radial
from edgehodge.errors import ConfigError, StiffnessFailureError
from edgehodge.radial import (
    ModeExponents,
    PolyRadialForm,
    d_cone,
    homotopy_K,
    homotopy_bound_coefficient,
    homotopy_operator_estimate,
    local_cohomology,
    log_grid,
    min_membership,
    mode_exponent,
    pullback_norm,
    radial_pullback,
    recovery_error,
    scale_radial,
    slice_constant,
    system_has_roots,
    window_position,
)
from edgehodge.spectral import indicial_roots
from edgehodge.stratified import torus_complex

WEIGHTS = [Fraction(n, 2) for n in range(-4, 5)]


# -- local cohomology table -------------------------------------------------

def test_local_cohomology_torus_link():
    t = local_cohomology((1, 2, 1), 2, 0)
    assert t.max_dims == (1, 2, 0)
    assert t.min_dims == (1, 0, 0)


def test_local_cohomology_circle_link_agree():
    t = local_cohomology((1, 1), 1, 0)
    assert t.max_dims == t.min_dims == (1, 0)


def test_local_cohomology_empty_for_large_weight():
    t = local_cohomology((1, 2, 1), 2, Fraction(3, 2))
    assert t.max_dims == (0, 0, 0)


def test_local_cohomology_matches_pullback_counts():
    # every class surviving in the max table is exactly a class whose
    # constant extension has finite weighted norm
    for betti in ((1, 1), (1, 2, 1), (1, 0, 1), (1, 3, 3, 1)):
        f = len(betti) - 1
        for a in WEIGHTS:
            t = local_cohomology(betti, f, a)
            for k, b in enumerate(betti):
                expected = b if pullback_norm(k, f, a).finite else 0
                assert t.max_dims[k] == expected


def test_local_min_below_max_scan():
    for betti in ((1, 1), (1, 2, 1), (1, 0, 1), (1, 3, 3, 1)):
        f = len(betti) - 1
        for a in WEIGHTS:
            t = local_cohomology(betti, f, a)
            assert all(m <= x for m, x in zip(t.min_dims, t.max_dims))


# -- pullback norm and slice constant ----------------------------------------

def test_pullback_norm_examples():
    assert pullback_norm(0, 2, 0) == pullback_norm(0, 2, 0)
    r = pullback_norm(0, 2, 0)
    assert r.finite and r.value == Fraction(1, 3)
    r = pullback_norm(1, 2, 0)
    assert r.finite and r.value == Fraction(1)
    assert not pullback_norm(1, 1, 0).finite


def test_pullback_threshold_flips_exactly():
    for f in range(0, 6):
        for a in WEIGHTS + [Fraction(1, 4), Fraction(-3, 4)]:
            for k in range(0, f + 3):
                expected = Fraction(k) < Fraction(f + 1, 2) - a
                assert pullback_norm(k, f, a).finite == expected


def test_slice_constant_examples():
    assert slice_constant(0, 2, 0) == Fraction(24, 7)
    assert slice_constant(1, 2, 0) == 2  # exponent zero: interval length 1/2
    assert math.isclose(slice_constant(1, 1, 0), 1.0 / math.log(2.0))


def test_slice_constant_large_fractional_exponent_underflows_to_zero():
    # e = 1 - 200000/3: 2^(-(e + 1)) overflows a float, K = m 2^-m / (1 - 2^-m) does not
    assert slice_constant(0, 1, Fraction(100000, 3)) == 0.0
    # large positive exponents already had K = e + 1 in floats
    assert slice_constant(0, 1, Fraction(-100000, 3)) == pytest.approx(200006 / 3)


def test_slice_constant_integer_exponent_beyond_bound_is_config_error():
    bound = radial.SLICE_EXPONENT_BOUND
    # e = f - 2k - 2a = -bound - 1 is the last exact constant; one more is refused
    a = Fraction(bound + 1, 2)
    assert slice_constant(0, 0, a) == Fraction(bound, 2 ** bound - 1)
    with pytest.raises(ConfigError, match=str(bound)):
        slice_constant(0, 0, a + Fraction(1, 2))
    with pytest.raises(ConfigError, match=str(bound)):
        slice_constant(0, 1, Fraction(10) ** 40)
    # a non-integer exponent beyond the float range has no float constant
    with pytest.raises(ConfigError, match="beyond the float range"):
        slice_constant(0, 1, Fraction(10 ** 309 + 1, 3))


def test_slice_constant_exponent_rounding_to_minus_one_is_the_limit():
    # float(e) == -1.0 while e != -1: the limit 1/ln 2, not a division by zero
    a = Fraction(1, 2) + Fraction(1, 10 ** 30)
    assert slice_constant(1, 2, a) == 1.0 / math.log(2.0)


# -- homotopy operator --------------------------------------------------------

TORUS = torus_complex()


def _random_exact_closed_form(rng, power):
    eta = [Fraction(rng.randint(-3, 3)) for _ in range(TORUS.dim(1))]
    sigma = {0: Fraction(1), power: Fraction(rng.randint(1, 4), 2)}
    form = scale_radial(radial_pullback(TORUS, 1, eta), sigma)
    return d_cone(form), eta, sigma


def test_homotopy_zero_beta_gives_zero():
    omega = radial_pullback(TORUS, 2, [1] * TORUS.dim(2))
    assert homotopy_K(omega, Fraction(3, 4)).is_zero()


def test_homotopy_reconstruction_exact():
    rng = random.Random(11)
    c = Fraction(3, 4)
    for power in (1, 2, 3, 4):
        omega, eta, sigma = _random_exact_closed_form(rng, power)
        assert d_cone(omega).is_zero()
        sig_c = sum(co * c ** m for m, co in sigma.items())
        eta_prime = radial_pullback(TORUS, 1, [sig_c * x for x in eta])
        recon = d_cone(eta_prime.add(homotopy_K(omega, c)))
        assert recon.add(omega.negate()).is_zero()


def test_homotopy_polynomial_beta_closed_form():
    # beta(x) = x gives K_c = (x^2 - 9/16)/2 exactly
    beta = tuple(Fraction(int(i == 0)) for i in range(TORUS.dim(0)))
    form = PolyRadialForm(TORUS, 1, {}, {1: beta})
    kc = homotopy_K(form, Fraction(3, 4))
    assert kc.alpha[2][0] == Fraction(1, 2)
    assert kc.alpha[0][0] == -Fraction(9, 32)
    assert not kc.beta


def test_homotopy_operator_norm_estimate():
    rng = random.Random(3)
    for power in (1, 2):
        omega, _, _ = _random_exact_closed_form(rng, power)
        est = homotopy_operator_estimate(omega, 2, 0, Fraction(3, 4))
        assert est["ok"]
        assert est["norm_K_sq"] <= est["coefficient"] * est["norm_beta_sq"] * 1.001


def test_homotopy_operator_estimate_without_numpy_trapezoid(monkeypatch):
    # numpy.trapezoid first appears in NumPy 2.0; the declared floor is 1.24
    monkeypatch.delattr(np, "trapezoid", raising=False)
    omega, _, _ = _random_exact_closed_form(random.Random(3), 1)
    assert homotopy_operator_estimate(omega, 2, 0, Fraction(3, 4))["ok"]


def test_homotopy_bound_log_case_positive():
    for c in (Fraction(21, 40), Fraction(3, 4), Fraction(9, 10)):
        # exponent -1: k = (f+1)/2 - a
        val = homotopy_bound_coefficient(1, 1, 0, c)
        assert val > 0


def test_homotopy_bound_requires_hypothesis():
    with pytest.raises(ValueError):
        homotopy_bound_coefficient(3, 1, 0, Fraction(3, 4))  # exponent -4


# -- membership ----------------------------------------------------------------

def test_membership_window_constant_fails():
    assert min_membership(1, 2, 0, 0) is False
    assert min_membership(1, 2, 0, Fraction(-1, 5)) is False


def test_membership_window_decaying_power_passes():
    assert min_membership(1, 2, 0, Fraction(1, 2)) is True
    assert min_membership(1, 2, 0, Fraction(3, 10)) is True


def test_membership_outside_window_always_true():
    # k = 1 with f = 3 sits at the window edge; the pairing still dies
    assert min_membership(1, 3, 0, 0) is True
    assert window_position(1, 3, 0) == "boundary"
    assert min_membership(0, 3, 0, 0) is True
    assert window_position(0, 3, 0) == "outside"


def test_window_dichotomy_symbolic():
    for f in range(0, 6):
        for a in WEIGHTS:
            lo = Fraction(f - 1, 2) - a
            hi = Fraction(f + 1, 2) - a
            for k in range(0, f + 1):
                if lo < Fraction(k) < hi:
                    assert min_membership(k, f, a, 1) is True
                    assert min_membership(k, f, a, 0) is False


# -- exponent recovery -----------------------------------------------------------

def test_mode_exponent_examples():
    me = mode_exponent(0, 0, 1, 0)
    assert abs(me.gamma_minus_hat - (-1)) < 1e-3
    assert abs(me.gamma_plus_hat - 0) < 1e-3

    me = mode_exponent(1, 1, 3, Fraction(1, 2))
    assert abs(me.gamma_minus_hat - (-2)) < 1e-3
    assert abs(me.gamma_plus_hat - 0) < 1e-3


def test_mode_exponent_double_root_flagged():
    me = mode_exponent(1, 0, 2, 0)
    assert me.double_root


def test_mode_exponent_near_degenerate_reported():
    # discriminant 1e-4: too stiff to separate the exponents
    with pytest.raises(StiffnessFailureError):
        mode_exponent(1, Fraction(1, 40000), 2, 0)


def test_mode_exponent_matches_closed_form_and_sum_rule():
    cases = [(0, 0, 1, Fraction(0)), (1, 1, 3, Fraction(1, 2)),
             (0, 1, 2, Fraction(0)), (2, 2, 4, Fraction(1, 2)),
             (1, Fraction(1, 2), 3, Fraction(-1, 2))]
    for k, lam2, f, a in cases:
        pair = indicial_roots(f, a, k, lam2)
        me = mode_exponent(k, lam2, f, a)
        assert abs(me.gamma_minus_hat - float(pair.gamma_minus)) <= 1e-3
        assert abs(me.gamma_plus_hat - float(pair.gamma_plus)) <= 1e-3
        assert abs(me.gamma_minus_hat + me.gamma_plus_hat
                   - float(2 * a - f)) <= 2e-3


def test_mode_exponent_rejects_bad_x0():
    with pytest.raises(ValueError):
        mode_exponent(0, 0, 1, 0, x0=0.5)


def test_mode_exponent_large_gap_scan():
    # a seeded sample of the modes whose indicial gap is at least 13: the
    # recessive root of each is fitted where it dominates, never from a
    # residual of the dominant one
    modes = [(k, lam2, f, Fraction(i, 4))
             for f in range(5) for i in range(-40, 41) for k in range(f + 1)
             for lam2 in (0, 1, 2, 5, 10, 25, 49, 64, 100)]
    pairs = [(m, indicial_roots(m[2], m[3], m[0], m[1])) for m in modes]
    large = [(m, p) for m, p in pairs if p.gamma_plus - p.gamma_minus >= 13]
    sample = random.Random(2026).sample(large, 300)
    for (k, lam2, f, a), pair in sample:
        _err, ok = recovery_error(mode_exponent(k, lam2, f, a), pair)
        assert ok, (k, lam2, f, a)


@pytest.mark.parametrize("x0", [0.05, 0.02, 0.003])
def test_mode_exponent_x0_not_a_power_of_ten(x0):
    # np.log of the logspace end rounds below ln x0 for x0 = 0.05; the
    # evaluation grid must stay inside the integration span
    checked = 0
    for f in (1, 2):
        for k in range(f + 1):
            for a in (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(5, 4)):
                pair = indicial_roots(f, a, k, 0)
                if pair.double_root:
                    continue
                me = mode_exponent(k, 0, f, a, x0=x0)
                assert abs(me.gamma_minus_hat - float(pair.gamma_minus)) <= 1e-3
                assert abs(me.gamma_plus_hat - float(pair.gamma_plus)) <= 1e-3
                checked += 1
    assert checked >= 10


# -- exact one-step propagator -----------------------------------------------------

@pytest.mark.parametrize("k, lam2, f, a", [
    (0, 1, 2, Fraction(0)), (0, 0, 1, Fraction(0)),
    (1, Fraction(9, 4), 2, Fraction(-5, 4))])
def test_mode_exponent_dominant_root_to_rounding(k, lam2, f, a):
    # exp(±hA) is exact up to rounding and each root is fitted where its
    # solution dominates, so both are recovered far below the 1e-3
    # recovery contract
    pair = indicial_roots(f, a, k, lam2)
    me = mode_exponent(k, lam2, f, a)
    assert abs(me.gamma_minus_hat - float(pair.gamma_minus)) <= 1e-12
    assert abs(me.gamma_plus_hat - float(pair.gamma_plus)) <= 1e-12


def test_mode_exponent_overflow_is_stiffness_failure():
    # h * delta = ln(10)/2 * sqrt(1e6) ~ 1151: the one-step propagator's
    # cosh overflows a float
    with pytest.raises(StiffnessFailureError, match="one-step propagator"):
        mode_exponent(0, 1000000, 2, 0, x0=1e-300, points_per_decade=2)


def test_mode_exponent_recovers_down_to_x0_1e_300():
    # x^(-1 - sqrt 2) at x = 1e-300 is beyond the float range; the jump to
    # each decade is renormalised, so neither fit sees it
    pair = indicial_roots(2, 0, 0, 1)
    _err, ok = recovery_error(mode_exponent(0, 1, 2, 0, x0=1e-300), pair)
    assert ok


@pytest.mark.parametrize("ppd", [100, 400])
def test_mode_exponent_non_finite_slope_is_stiffness_failure(ppd):
    # gamma- = -1 - sqrt(100001) ~ -317: the dominant solution grows by
    # 10^317 across the last decade, past the float range on any grid
    with pytest.raises(StiffnessFailureError, match="not finite"):
        mode_exponent(0, 100000, 2, 0, points_per_decade=ppd)


def test_recovery_error_reads_the_tolerance():
    pair = indicial_roots(2, 0, 0, 1)
    exact = ModeExponents(float(pair.gamma_minus), float(pair.gamma_plus), False)
    assert recovery_error(exact, pair) == (0.0, True)
    off = ModeExponents(exact.gamma_minus_hat, exact.gamma_plus_hat + 2e-3, False)
    err, ok = recovery_error(off, pair)
    assert err == pytest.approx(2e-3) and not ok


@st.composite
def exact_modes(draw):
    """(k, f, a, lambda^2) whose indicial pair is rational: lambda^2 =
    ((g + t)^2 - g^2) / 4 with g = |f - 2a - 2k| makes the discriminant
    the square (g + t)^2."""
    k, f = draw(st.integers(0, 6)), draw(st.integers(0, 8))
    a = Fraction(draw(st.integers(-60, 60)), draw(st.integers(1, 12)))
    t = Fraction(draw(st.integers(0, 60)), draw(st.integers(1, 12)))
    g = abs(f - 2 * a - 2 * k)
    return k, f, a, ((g + t) ** 2 - g ** 2) / 4


@given(exact_modes())
def test_exact_check_accepts_every_rational_pair(mode):
    k, f, a, lam2 = mode
    pair = indicial_roots(f, a, k, lam2)
    assert pair.exact
    assert system_has_roots(k, lam2, f, a, pair.gamma_minus, pair.gamma_plus)


@given(exact_modes())
def test_exact_check_rejects_a_wrong_pair(mode):
    k, f, a, lam2 = mode
    pair = indicial_roots(f, a, k, lam2)
    gm, gp = pair.gamma_minus, pair.gamma_plus
    half = Fraction(1, 2)
    assert not system_has_roots(k, lam2, f, a, gm + half, gp)
    assert not system_has_roots(k, lam2, f, a, gm, gp - half)
    assert not system_has_roots(k, lam2 + Fraction(1, 3), f, a, gm, gp)
    # the pair of degree k + 1 is the same pair exactly when f - 2a = 2k + 1
    other = indicial_roots(f, a, k + 1, lam2)
    if other.exact and (other.gamma_minus, other.gamma_plus) != (gm, gp):
        assert not system_has_roots(k, lam2, f, a, other.gamma_minus, other.gamma_plus)


# Each (k, lambda^2, f, a, x0, ppd) with the repr of its ModeExponents or
# the type of the exception it raised.  ``branch`` names the path each
# row takes: lambda^2 = 0, a small or a large (>= 13) indicial gap, the
# gap cut, an overflowing one-step propagator, a decade out of the
# float range, the double root and a rejected x0 or points per decade,
# on grids whose fit windows are apart (x0 <= 1e-2, down to 1e-300) or
# overlap (x0 = 0.05, and x0 = 0.1 with 3 points per decade).  ``id``
# names the test: rows 0-29 keep the branch of the recovery that
# deflated the dominant direction (split slopes, deflation, its
# parallel-start fallback, ...), for which they were chosen.
MODE_EXPONENT_TABLE = json.loads(
    (Path(__file__).parent / "data" / "mode_exponents.json").read_text())


@pytest.mark.parametrize("case", MODE_EXPONENT_TABLE,
                         ids=[f"{i}-{c['id']}" for i, c in enumerate(MODE_EXPONENT_TABLE)])
def test_mode_exponent_bit_exact_to_frozen_table(case):
    lam2 = float(case["lam2"]) if "." in case["lam2"] else Fraction(case["lam2"])
    try:
        result = repr(mode_exponent(case["k"], lam2, case["f"], Fraction(case["a"]),
                                    x0=case["x0"], points_per_decade=case["ppd"]))
    except Exception as exc:  # noqa: BLE001 - the table records the type
        result = "raises " + type(exc).__name__
    assert result == case["result"]


@pytest.mark.parametrize("x0, ppd", [(1e-4, 400), (0.05, 400), (0.1, 3), (1e-10, 2),
                                     (0.037, 17)])
def test_lazy_grid_reads_like_log_grid(x0, ppd):
    grid = radial._LogGrid(x0, ppd)
    xs = log_grid(x0, ppd)
    assert len(grid) == len(xs)
    assert [grid[i] for i in range(len(xs))] == list(xs)
    assert grid.points(1, len(xs)) == list(xs[1:])
    for target in (10 * x0, 0.1, x0, 1.0, xs[len(xs) // 2]):
        assert bisect.bisect_right(grid, target) == bisect.bisect_right(xs, target)
        assert bisect.bisect_left(grid, target) == bisect.bisect_left(xs, target)
