import math
import random
from fractions import Fraction

import numpy as np
import pytest

from edgehodge.errors import (
    InconclusiveSlopeError,
    QuadratureError,
    StiffnessFailureError,
)
from edgehodge.radial import (
    ConeModeProfile,
    ModeExponents,
    PolyRadialForm,
    d_cone,
    homotopy_K,
    homotopy_K_profile,
    homotopy_bound_coefficient,
    homotopy_operator_estimate,
    load_coefficient_table,
    local_cohomology,
    log_grid,
    min_membership,
    mode_exponent,
    power_profile,
    pullback_norm,
    radial_pullback,
    recovery_error,
    save_coefficient_table,
    scale_radial,
    slice_constant,
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


def test_homotopy_sampled_profile_matches_closed_form():
    xs = log_grid(1e-4, 400)
    prof = ConeModeProfile(1, 0.0, xs, tuple(0.0 for _ in xs), xs)
    kp = homotopy_K_profile(prof, 0.75)
    expect = np.array([(x * x - 0.5625) / 2.0 for x in xs])
    assert float(np.max(np.abs(np.array(kp.a_samples) - expect))) < 5e-7


def test_homotopy_sampled_underresolved_grid_raises():
    xs = log_grid(1e-4, 3)
    prof = ConeModeProfile(1, 0.0, xs, tuple(0.0 for _ in xs),
                           tuple(math.sin(40 * x) for x in xs))
    with pytest.raises(QuadratureError):
        homotopy_K_profile(prof, 0.75)


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
    assert min_membership(1, 2, 0, power_profile(1, 0, 0)) is False


def test_membership_window_decaying_power_passes():
    assert min_membership(1, 2, 0, power_profile(1, 0, Fraction(1, 2))) is True


def test_membership_outside_window_always_true():
    # k = 1 with f = 3 sits at the window edge; the pairing still dies
    assert min_membership(1, 3, 0, power_profile(1, 0, 0)) is True
    assert window_position(1, 3, 0) == "boundary"
    assert min_membership(0, 3, 0, power_profile(0, 0, 0)) is True
    assert window_position(0, 3, 0) == "outside"


def test_membership_numeric_slope_paths():
    xs = log_grid(1e-4, 120)
    grow = ConeModeProfile(1, 0.0, xs, tuple(x ** 0.3 for x in xs),
                           tuple(0.0 for _ in xs))
    assert min_membership(1, 2, 0, grow) is True
    flat = ConeModeProfile(1, 0.0, xs, tuple(1.0 for _ in xs),
                           tuple(0.0 for _ in xs))
    with pytest.raises(InconclusiveSlopeError):
        min_membership(1, 2, 0, flat)
    negative = ConeModeProfile(1, 0.0, xs, tuple(x ** -0.2 for x in xs),
                               tuple(0.0 for _ in xs))
    assert min_membership(1, 2, 0, negative) is False


def test_window_dichotomy_symbolic():
    for f in range(0, 6):
        for a in WEIGHTS:
            lo = Fraction(f - 1, 2) - a
            hi = Fraction(f + 1, 2) - a
            for k in range(0, f + 1):
                if lo < Fraction(k) < hi:
                    assert min_membership(k, f, a, power_profile(k, 0, 1)) is True
                    assert min_membership(k, f, a, power_profile(k, 0, 0)) is False


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


# -- profile I/O -------------------------------------------------------------------

def test_profile_table_roundtrip(tmp_path):
    prof = power_profile(1, 0, Fraction(1, 2), x0=1e-2, points_per_decade=10)
    path = tmp_path / "alpha.txt"
    save_coefficient_table(str(path), prof.xs, prof.a_samples)
    xs, vals = load_coefficient_table(str(path))
    assert xs == prof.xs
    assert vals == prof.a_samples


def test_profile_validation():
    xs = (0.1, 0.05, 1.0)
    with pytest.raises(ValueError):
        ConeModeProfile(1, 0.0, xs, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        ConeModeProfile(1, 0.0, (0.1, 1.0), (float("nan"), 1.0), (0.0, 0.0))


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
    # exp(-hA) is exact up to rounding, so the dominant (most negative)
    # exponent is recovered far below the 1e-3 recovery contract
    pair = indicial_roots(f, a, k, lam2)
    me = mode_exponent(k, lam2, f, a)
    assert abs(me.gamma_minus_hat - float(pair.gamma_minus)) <= 1e-12


def test_mode_exponent_overflow_is_stiffness_failure():
    # x^(-1 - sqrt 2) overflows a float long before x = 1e-300
    with pytest.raises(StiffnessFailureError):
        mode_exponent(0, 1, 2, 0, x0=1e-300)


@pytest.mark.parametrize("lam2", [100, 400])
def test_mode_exponent_non_finite_slope_is_stiffness_failure(lam2):
    # the recessive solution drops below rounding next to x^(-1 - sqrt(1 + lam2));
    # its deflated residual has exact zeros and no slope
    with pytest.raises(StiffnessFailureError, match="not finite"):
        mode_exponent(0, lam2, 2, 0)


def test_recovery_error_reads_the_tolerance():
    pair = indicial_roots(2, 0, 0, 1)
    exact = ModeExponents(float(pair.gamma_minus), float(pair.gamma_plus), False)
    assert recovery_error(exact, pair) == (0.0, True)
    off = ModeExponents(exact.gamma_minus_hat, exact.gamma_plus_hat + 2e-3, False)
    err, ok = recovery_error(off, pair)
    assert err == pytest.approx(2e-3) and not ok
