"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance and time budget is pinned here; nothing is deferred to
later calibration.  Expected values marked as derived were computed
with the independent oracles in ``oracles.py`` and frozen.
"""

import math
import random
import time
from fractions import Fraction

from edgehodge import radial, spectral, weights
from edgehodge.cochain import cohomology_dims, tensor, truncate
from edgehodge.fibredec import build_fibre, spectrum_for_predicates
from edgehodge.stratified import (
    BUILTIN_NAMES,
    builtin_space,
    ih_dims,
    middle_perversities,
    tube_ih,
)

from oracles import circle_discrete_eigenvalue, fibre_spectrum, fit_mode_exponent, log_grid, sample


def _record(num: int, desc: str, ok: bool, elapsed: float | None = None):
    stamp = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}{stamp}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_half_weight_reproduction():
    t0 = time.perf_counter()
    ok = True
    for name in ("cone-torus", "edge-torus-over-circle"):
        space = builtin_space(name)
        low, bar = middle_perversities(space.f)
        targets = {Fraction(1, 2): low, Fraction(-1, 2): bar}
        for a, target in targets.items():
            rmax = weights.weighted_derham_dims(space, a, "max")
            rmin = weights.weighted_derham_dims(space, a, "min")
            ok &= rmax.dims == rmin.dims == ih_dims(space, target)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _record(1, "half-weight max/min collapse onto the middle perversities",
            ok, elapsed)


def test_criterion_02_dictionary_matches_local_table():
    t0 = time.perf_counter()
    ok = True
    grid = [Fraction(n, 2) for n in range(-4, 5)]
    for name in ("cone-circle", "cone-torus", "cone-sphere2"):
        space = builtin_space(name)
        fb = space.F.cohomology_dims()
        for a in grid:
            table = radial.local_cohomology(fb, space.f, a)
            for ext, expect in (("max", table.max_dims), ("min", table.min_dims)):
                dims = weights.weighted_derham_dims(space, a, ext).dims
                padded = tuple(expect) + (0,) * (space.n + 1 - len(expect))
                ok &= dims == padded
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    _record(2, "weight dictionary equals the cone local-cohomology table",
            ok, elapsed)


def test_criterion_03_minimal_hodge_sandwich():
    ok = True
    grid = [Fraction(n, 2) for n in range(-4, 5)]
    for name in BUILTIN_NAMES:
        space = builtin_space(name)
        fb = space.F.cohomology_dims()
        for a in grid:
            mx = weights.weighted_derham_dims(space, a, "max").dims
            mn = weights.weighted_derham_dims(space, a, "min").dims
            mh = weights.minimal_hodge_dims(space, a).dims
            ok &= all(h <= min(x, m) for h, x, m in zip(mh, mx, mn))
            if spectral.unique_closed_extension_d(space.f, a, fb):
                ok &= mx == mn == mh
    _record(3, "minimal-Hodge dims sandwiched, equal under unique extension", ok)


def test_criterion_04_poincare_duality_extended():
    ok = True
    for name in ("susp-torus", "edge-torus-over-circle"):
        space = builtin_space(name)
        low, bar = middle_perversities(space.f)
        for s in range(-2, 3):
            for twok in range(-2 * space.n, 2 * space.n + 1):
                k = Fraction(twok, 2)
                d1 = Fraction(space.n, 2) - k
                d2 = Fraction(space.n, 2) + k
                if d1.denominator != 1 or d1 < 0 or d2 < 0:
                    continue
                ok &= (ih_dims(space, low + s)[int(d1)]
                       == ih_dims(space, bar - s)[int(d2)])
    _record(4, "extended-perversity Poincare duality on closed built-ins", ok)


def test_criterion_05_indicial_roots():
    t0 = time.perf_counter()
    ok = True
    rng = random.Random(20240813)
    for _ in range(200):
        f = rng.randint(0, 7)
        k = rng.randint(0, max(f, 1))
        a = Fraction(rng.randint(-8, 8), rng.choice((1, 2, 3, 4)))
        pair = spectral.indicial_roots(f, a, k, 0)
        ok &= pair.exact
        ok &= [pair.gamma_minus, pair.gamma_plus] == sorted(
            (Fraction(-k), Fraction(k) + 2 * a - f))
    modes = [
        (0, Fraction(0), 1, Fraction(0)), (1, Fraction(1), 3, Fraction(1, 2)),
        (0, Fraction(1), 2, Fraction(0)), (2, Fraction(2), 4, Fraction(1, 2)),
        (1, Fraction(1, 2), 3, Fraction(-1, 2)), (0, Fraction(0), 3, Fraction(1)),
        (2, Fraction(4), 5, Fraction(0)), (1, Fraction(2), 2, Fraction(1)),
        (0, Fraction(1), 1, Fraction(0)), (3, Fraction(3), 5, Fraction(1, 2)),
        (1, Fraction(0), 4, Fraction(0)), (2, Fraction(0), 5, Fraction(-1, 2)),
        (0, Fraction(2), 2, Fraction(1, 2)), (1, Fraction(4), 1, Fraction(0)),
        (2, Fraction(1), 3, Fraction(0)), (0, Fraction(0), 5, Fraction(2)),
        (1, Fraction(1), 2, Fraction(-1)), (3, Fraction(0), 4, Fraction(-1, 2)),
        (2, Fraction(3), 2, Fraction(0)), (0, Fraction(4), 4, Fraction(1)),
    ]
    assert len(modes) == 20
    for k, lam2, f, a in modes:
        pair = spectral.indicial_roots(f, a, k, lam2)
        me = fit_mode_exponent(k, lam2, f, a, x0=1e-4)
        ok &= not me.double_root
        ok &= abs(me.gamma_minus_hat - float(pair.gamma_minus)) <= 1e-3
        ok &= abs(me.gamma_plus_hat - float(pair.gamma_plus)) <= 1e-3
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    _record(5, "closed-form root factorization and numeric recovery", ok, elapsed)


def test_criterion_06_selfadjointness_predicates():
    circle_spec = spectrum_for_predicates(build_fibre("circle", 16))
    torus_spec = spectrum_for_predicates(build_fibre("torus", (16, 16)))
    sphere_spec = spectral.sphere2_spectrum()
    ok = spectral.essentially_selfadjoint(1, 0, circle_spec) is True
    ok &= spectral.essentially_selfadjoint(1, 0, torus_spec) is True
    ok &= spectral.essentially_selfadjoint(1, 0, sphere_spec) is True
    ok &= spectral.essentially_selfadjoint(2, 0, torus_spec) is False
    ok &= spectral.essentially_selfadjoint(2, 0, sphere_spec) is True
    _record(6, "essential self-adjointness predicates on discrete spectra", ok)


def test_criterion_07_fibre_spectra():
    t0 = time.perf_counter()
    length = 2 * math.pi
    r64 = fibre_spectrum(build_fibre("circle", 64, length), 0, 3)
    ok = abs(r64.eigenvalues[1] - 1.0) < 0.01
    r32 = fibre_spectrum(build_fibre("circle", 32, length), 0, 3)
    ratio = abs(r32.eigenvalues[1] - 1.0) / abs(r64.eigenvalues[1] - 1.0)
    ok &= 3.5 <= ratio <= 4.5
    # the discrete eigenvalues themselves match the analytic closed form
    ok &= abs(r64.eigenvalues[1]
              - circle_discrete_eigenvalue(64, length, 1)) < 1e-10
    spec = spectrum_for_predicates(build_fibre("torus", (16, 16)))
    ok &= spec.zero_multiplicities() == (1, 2, 1)
    # the dense eigensolve finds the two harmonic 1-forms
    ok &= fibre_spectrum(build_fibre("torus", (16, 16)), 1, 3).harmonic_dim == 2
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    _record(7, "circle eigenvalue accuracy, convergence rate, torus harmonics",
            ok, elapsed)


def test_criterion_08_homotopy_operator_and_threshold():
    from edgehodge.stratified import torus_complex

    torus = torus_complex()
    rng = random.Random(20240814)
    c = Fraction(3, 4)
    xs = log_grid(1e-3, 60)
    ok = True
    count = 0
    for fibre_degree in (1, 2):
        for trial in range(5):
            eta = [Fraction(rng.randint(-3, 3))
                   for _ in range(torus.dim(fibre_degree))]
            sigma = {0: Fraction(1), trial + 1: Fraction(rng.randint(1, 5), 2)}
            omega = radial.d_cone(radial.scale_radial(
                radial.radial_pullback(torus, fibre_degree, eta), sigma))
            ok &= radial.d_cone(omega).is_zero()
            sig_c = sum(co * c ** m for m, co in sigma.items())
            eta_prime = radial.radial_pullback(
                torus, fibre_degree, [sig_c * x for x in eta])
            recon = radial.d_cone(eta_prime.add(radial.homotopy_K(omega, c)))
            diff = recon.add(omega.negate())
            amag, bmag = sample(diff, xs)
            ok &= max(amag + bmag, default=0.0) <= 1e-8
            count += 1
    ok &= count == 10
    for f in range(0, 6):
        for n in range(-8, 9):
            a = Fraction(n, 4)
            for k in range(0, f + 3):
                expected = Fraction(k) < Fraction(f + 1, 2) - a
                ok &= radial.pullback_norm(k, f, a).finite == expected
    _record(8, "homotopy reconstruction at 1e-8 and exact divergence flip", ok)


def test_criterion_09_complete_metric_verdicts():
    ok = True
    for name in ("cone-circle", "cone-torus", "cone-sphere2", "susp-torus"):
        space = builtin_space(name)
        ok &= space.b % 2 == 0
        ok &= all(weights.complete_l2(space, k).finite
                  for k in range(space.n + 1))
    space = builtin_space("edge-torus-over-circle")
    infinite = [k for k in range(space.n + 1)
                if not weights.complete_l2(space, k).finite]
    ok &= infinite == [1, 2, 3]
    for k in (0, 4):
        ans = weights.complete_l2(space, k)
        p = Fraction(space.f) + Fraction(space.b, 2) - k
        ok &= ans.finite and ans.perversity.value == p
        ok &= ans.dim == ih_dims(space, p)[k]
    _record(9, "complete-metric finiteness pattern and dimensions", ok)


def test_criterion_10_truncated_tensor_oracle():
    t0 = time.perf_counter()
    ok = True
    for name in BUILTIN_NAMES:
        space = builtin_space(name)
        for p in range(-1, space.f + 2):
            cut = space.effective_cutoff(p)
            tf, _ = truncate(space.F, cut)
            brute = cohomology_dims(tensor(space.B, tf)) if tf.dims else ()
            brute = tuple(brute) + (0,) * (space.n + 1 - len(brute))
            ok &= brute[: space.n + 1] == tube_ih(space, p)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    _record(10, "tube dimensions equal brute-force truncated tensor cohomology",
            ok, elapsed)
