"""Executable invariant suites.

Every module-level invariant has a named check here; ``edgehodge verify
--all`` runs them and the test suite calls the same functions, so the
CLI and CI agree about what "passing" means.  Checks are grouped per
module and return CheckResult records rather than raising, except for
genuine programming errors.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from edgehodge import fibredec, radial, spectral, weights
from edgehodge.cochain import (
    CochainComplex,
    ComplexMap,
    QMatrix,
    cohomology_dims,
    induced_map_rank,
    mapping_cone,
    tensor,
    truncate,
)
from edgehodge.stratified import (
    BUILTIN_NAMES,
    builtin_space,
    circle_complex,
    extended_identities,
    ih_dims,
    ih_map_rank,
    interval_complex,
    kunneth_convolution,
    middle_perversities,
    point_complex,
    sphere2_complex,
    torus_complex,
    tube_ih,
)

WEIGHT_GRID = tuple(Fraction(n, 2) for n in range(-4, 5))


@dataclass
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""


def _result(suite: str, name: str, passed: bool, detail: str = "") -> CheckResult:
    return CheckResult(suite, name, bool(passed), detail)


# ---------------------------------------------------------------------------
# cochain


def _random_unimodular(n: int, rng: random.Random) -> tuple[QMatrix, QMatrix]:
    """A random unimodular matrix P and its inverse.  P is a product of
    elementary matrices I + cE_ij, so P⁻¹ is the reversed product of
    the I - cE_ij."""
    factors = []
    for i in range(n):
        for j in range(i):
            factors.append((i, j, rng.randint(-2, 2)))
            factors.append((j, i, rng.randint(-2, 2)))

    def product(fs):
        out = [[int(r == c) for c in range(n)] for r in range(n)]
        for i, j, c in fs:  # right multiplication adds c · column i to column j
            for row in out:
                row[j] += c * row[i]
        return QMatrix(n, n, out)

    return product(factors), product([(i, j, -c) for i, j, c in reversed(factors)])


def _conjugate(cx: CochainComplex, rng: random.Random) -> CochainComplex:
    ps, inv = zip(*(_random_unimodular(n, rng) for n in cx.dims))
    ds = [ps[k + 1] @ cx.d[k] @ inv[k] for k in range(len(cx.d))]
    return CochainComplex(cx.dims, ds)


def _sample_complexes() -> list[CochainComplex]:
    circle = circle_complex()
    return [
        circle,
        point_complex(),
        interval_complex(),
        sphere2_complex(),
        torus_complex(),
        tensor(circle, interval_complex()),
        tensor(circle, sphere2_complex()),
    ]


def cochain_checks() -> list[CheckResult]:
    out = []
    rng = random.Random(20240811)
    samples = _sample_complexes()

    ok = all(
        cx.euler_characteristic()
        == sum((-1) ** k * h for k, h in enumerate(cohomology_dims(cx)))
        for cx in samples
    )
    out.append(_result("cochain", "euler-characteristic", ok))

    pairs = [(samples[0], samples[0]), (samples[0], samples[4]), (samples[3], samples[4])]
    ok = all(
        cohomology_dims(tensor(a, b))
        == kunneth_convolution(cohomology_dims(a), cohomology_dims(b))
        for a, b in pairs
    )
    out.append(_result("cochain", "kunneth-convolution", ok))

    a, b, c = samples[0], samples[2], samples[3]
    ok = cohomology_dims(tensor(tensor(a, b), c)) == cohomology_dims(tensor(a, tensor(b, c)))
    out.append(_result("cochain", "tensor-associativity", ok))

    ok = True
    for cx in (samples[0], samples[4]):
        for _ in range(3):
            if cohomology_dims(_conjugate(cx, rng)) != cohomology_dims(cx):
                ok = False
    out.append(_result("cochain", "basis-change-invariance", ok))

    circle = samples[0]
    maps = [
        ComplexMap.identity(circle),
        ComplexMap.zero(circle, circle),
        ComplexMap(circle, point_complex(), [QMatrix(1, 2, [[1, 0]])]),
    ]
    ok = True
    for phi in maps:
        cone = mapping_cone(phi)
        hc = cohomology_dims(cone)
        ha = cohomology_dims(phi.source)
        hb = cohomology_dims(phi.target)
        for s in range(cone.top_degree + 1):

            def h(dims, k):
                return dims[k] if 0 <= k < len(dims) else 0

            def rank(k):
                if k < 0 or k > max(phi.source.top_degree, phi.target.top_degree):
                    return 0
                return induced_map_rank(phi, k)

            expected = (h(ha, s) - rank(s)) + (h(hb, s - 1) - rank(s - 1))
            if hc[s] != expected:
                ok = False
        if cone.euler_characteristic() != (
            phi.source.euler_characteristic() - phi.target.euler_characteristic()
        ):
            ok = False
    out.append(_result("cochain", "mapping-cone-exactness-bookkeeping", ok))
    return out


# ---------------------------------------------------------------------------
# stratified


def _perversity_grid(f: int):
    vals = set()
    for n in range(-4, 2 * f + 5):
        vals.add(Fraction(n, 2))
    return sorted(vals)


def stratified_checks(space_names=None) -> list[CheckResult]:
    out = []
    names = space_names or BUILTIN_NAMES
    spaces = [builtin_space(n) for n in names]

    ok = True
    detail = ""
    for sp in spaces:
        grid = _perversity_grid(sp.f)
        for i, p in enumerate(grid):
            for q in grid[: i + 1]:
                for k in range(sp.n + 1):
                    r = ih_map_rank(sp, p, q, k)
                    if r > min(ih_dims(sp, p)[k], ih_dims(sp, q)[k]):
                        ok = False
                        detail = f"{sp.name} p={p} q={q} k={k}"
    out.append(_result("stratified", "rank-monotonicity", ok, detail))

    ok = True
    detail = ""
    for sp in spaces:
        if sp.b == 0 and sp.B.dim(0) == 1:
            continue  # cone models carry a boundary; duality not asserted
        ml, mb = middle_perversities(sp.f)
        for s in range(-2, 3):
            for twok in range(-2 * sp.n, 2 * sp.n + 1):
                k = Fraction(twok, 2)
                d1 = Fraction(sp.n, 2) - k
                d2 = Fraction(sp.n, 2) + k
                if d1.denominator != 1 or d1 < 0 or d2 < 0:
                    continue
                if ih_dims(sp, ml + s)[int(d1)] != ih_dims(sp, mb - s)[int(d2)]:
                    ok = False
                    detail = f"{sp.name} s={s} k={k}"
    out.append(_result("stratified", "poincare-duality-extended", ok, detail))

    ok = True
    for sp in spaces:
        low = ih_dims(sp, -1)
        if any(ih_dims(sp, p) != low for p in (-2, Fraction(-7, 2), -5)):
            ok = False
        high = ih_dims(sp, sp.f)
        if any(ih_dims(sp, sp.f + d) != high for d in (1, Fraction(5, 2), 4)):
            ok = False
    out.append(_result("stratified", "truncation-saturation", ok))

    ok = True
    detail = ""
    for sp in spaces:
        for p in range(-1, sp.f + 2):
            tf, _ = truncate(sp.F, sp.effective_cutoff(p))
            brute = cohomology_dims(tensor(sp.B, tf)) if tf.dims else ()
            brute = tuple(brute) + (0,) * (sp.n + 1 - len(brute))
            if brute[: sp.n + 1] != tube_ih(sp, p):
                ok = False
                detail = f"{sp.name} p={p}"
    out.append(_result("stratified", "tube-oracle-equivalence", ok, detail))

    ok = True
    for sp in spaces:
        for p in (-1, -3, Fraction(-5, 2)):
            if extended_identities(sp, p) != ih_dims(sp, p):
                ok = False
        for p in (sp.f, sp.f + 2, Fraction(2 * sp.f + 1, 2)):
            if extended_identities(sp, p) != ih_dims(sp, p):
                ok = False
    out.append(_result("stratified", "extended-identities-match-engine", ok))

    # Künneth on the boundary Y = tensor(B, F), which a model does not
    # keep, so it is built here
    ok = True
    detail = ""
    for sp in spaces:
        conv = kunneth_convolution(sp.B.cohomology_dims(), sp.F.cohomology_dims())
        if tuple(conv) != tuple(tensor(sp.B, sp.F).cohomology_dims()):
            ok = False
            detail = sp.name
    out.append(_result("stratified", "y-kunneth", ok, detail))
    return out


# ---------------------------------------------------------------------------
# weights


def weights_checks(space_names=None) -> list[CheckResult]:
    out = []
    names = space_names or BUILTIN_NAMES
    spaces = [builtin_space(n) for n in names]

    ok = True
    detail = ""
    for sp in spaces:
        for a in WEIGHT_GRID:
            mx = weights.weighted_derham_dims(sp, a, "max").dims
            mn = weights.weighted_derham_dims(sp, a, "min").dims
            mh = weights.minimal_hodge_dims(sp, a).dims
            if any(h > min(x, m) for h, x, m in zip(mh, mx, mn)):
                ok = False
                detail = f"{sp.name} a={a}"
    out.append(_result("weights", "kodaira-sandwich", ok, detail))

    ok = True
    for sp in spaces:
        if sp.f % 2 == 1:
            continue
        for a in (Fraction(1, 2), Fraction(3, 2), Fraction(-1, 2)):
            rmax = weights.weighted_derham_dims(sp, a, "max")
            rmin = weights.weighted_derham_dims(sp, a, "min")
            if rmax.perversity != rmin.perversity or rmax.dims != rmin.dims:
                ok = False
    out.append(_result("weights", "half-integer-coincidence", ok))

    # Monotonicity in the weight holds degreewise on cone models (where
    # the dimensions are pure truncations); on closed spaces duality
    # forces complementary-degree dimensions to grow, so the local
    # counterpart lives in radial/min-below-max instead.
    ok = True
    for sp in spaces:
        if not (sp.b == 0 and sp.B.dim(0) == 1):
            continue
        for ext in ("max", "min"):
            prev = None
            for a in WEIGHT_GRID:
                dims = weights.weighted_derham_dims(sp, a, ext).dims
                if prev is not None and any(d > p for d, p in zip(dims, prev)):
                    ok = False
                prev = dims
    out.append(_result("weights", "monotone-in-weight-cones", ok))

    ok = True
    for sp in spaces:
        if sp.b % 2 == 0:
            for k in range(sp.n + 1):
                f1 = weights.complete_l2(sp, k).finite
                f2 = weights.complete_l2(sp, sp.n - k).finite
                if f1 != f2 or not f1:
                    ok = False
    out.append(_result("weights", "complete-l2-even-base-finite", ok))

    ok = True
    for sp in spaces:
        fb = sp.F.cohomology_dims()
        for a in WEIGHT_GRID:
            if spectral.unique_closed_extension_d(sp.f, a, fb):
                mx = weights.weighted_derham_dims(sp, a, "max").dims
                mn = weights.weighted_derham_dims(sp, a, "min").dims
                mh = weights.minimal_hodge_dims(sp, a).dims
                if not (mx == mn == mh):
                    ok = False
    out.append(_result("weights", "unique-extension-collapse", ok))
    return out


# ---------------------------------------------------------------------------
# spectral


def spectral_checks() -> list[CheckResult]:
    out = []
    rng = random.Random(20240812)

    ok = True
    for _ in range(200):
        f = rng.randint(0, 6)
        k = rng.randint(0, max(f, 1))
        a = Fraction(rng.randint(-8, 8), rng.choice((1, 2, 3, 4)))
        lam2 = Fraction(rng.randint(0, 9), rng.choice((1, 2)))
        pair = spectral.indicial_roots(f, a, k, lam2)
        if pair.exact:
            if pair.gamma_minus + pair.gamma_plus != 2 * a - f:
                ok = False
        else:
            if abs(pair.sum_rule_defect(f)) > 1e-12 * (1 + abs(2 * float(a) - f)):
                ok = False
    out.append(_result("spectral", "indicial-sum-rule", ok))

    ok = True
    for _ in range(200):
        f = rng.randint(0, 6)
        k = rng.randint(0, max(f, 1))
        a = Fraction(rng.randint(-6, 6), 2)
        # reflected degree k -> f - 2a - k exists whenever 2a is an integer
        kr = Fraction(f) - 2 * a - k
        if kr.denominator != 1:
            continue
        d1 = Fraction(f - 2 * a - 2 * k) ** 2
        d2 = Fraction(f - 2 * a - 2 * int(kr)) ** 2
        if d1 != d2:
            ok = False
    out.append(_result("spectral", "reflection-invariance", ok))

    ok = True
    for _ in range(200):
        f = rng.randint(0, 8)
        k = rng.randint(0, max(f, 1))
        a = Fraction(rng.randint(-8, 8), rng.choice((1, 2, 4)))
        pair = spectral.indicial_roots(f, a, k, 0)
        expected = sorted((Fraction(-k), k + 2 * a - f))
        if not pair.exact or [pair.gamma_minus, pair.gamma_plus] != expected:
            ok = False
    out.append(_result("spectral", "zero-eigenvalue-factorization", ok))

    t2 = spectral.FibreSpectrum(
        [[(0, 1), (1, 2)], [(0, 2), (1, 4)], [(0, 1), (1, 2)]],
        "closed-form", betti=(1, 2, 1))
    s2 = spectral.sphere2_spectrum()
    circ = spectral.FibreSpectrum(
        [[(0, 1), (1, 2)], [(0, 1), (1, 2)]], "closed-form", betti=(1, 1))
    ok = True
    for spec_obj in (t2, s2, circ):
        for f in range(1, 5):
            for a in WEIGHT_GRID:
                esa = spectral.essentially_selfadjoint(f, a, spec_obj)
                uce = spectral.unique_closed_extension_d(f, a, spec_obj.betti)
                if esa and not uce:
                    ok = False
    out.append(_result("spectral", "selfadjoint-implies-unique-extension", ok))
    return out


# ---------------------------------------------------------------------------
# fibredec


def fibredec_checks() -> list[CheckResult]:
    out = []

    fibres = [
        fibredec.build_fibre("circle", 12),
        fibredec.build_fibre("torus", (6, 8)),
        fibredec.build_fibre("circle", 16, scale=math.pi),
    ]
    ok = all(f.complex.verify() for f in fibres)
    out.append(_result("fibredec", "exact-d-squared-zero", ok))

    ok = True
    for fib in fibres:
        for q in range(fib.top_degree + 1):
            s = fibredec.laplacian_matrix(fib, q)
            if any(list(col) != row for row, col in zip(s, zip(*s))):
                ok = False
    out.append(_result("fibredec", "weighted-symmetry", ok))

    t88 = fibredec.build_fibre("torus", (8, 8))
    spec0 = fibredec.spectrum_for_predicates(t88, count=10)
    s0 = [float(v) for v, m in spec0.eigenvalues(0) for _ in range(m)]
    s2 = [float(v) for v, m in spec0.eigenvalues(2) for _ in range(m)]
    ok = len(s0) == len(s2) and all(abs(a - b) < 1e-8 for a, b in zip(s0, s2))
    out.append(_result("fibredec", "torus-spectral-duality", ok))

    # the weighted circle Laplacian in degree 0 is (n/L)² dᵀd: once dᵀd is
    # certified, circle_mode_eigenvalue is its spectrum
    certified = True
    for n in (24, 48):
        d = fibredec.build_fibre("circle", n).complex.d_at(0)
        certified &= fibredec.certify_circle_spectrum(d.transpose() @ d)
    e_n, e_2n = (abs(fibredec.circle_mode_eigenvalue(n, 2 * math.pi, 1) - 1.0)
                 for n in (24, 48))
    ratio = e_n / e_2n
    out.append(_result("fibredec", "mesh-convergence-rate",
                       certified and 3.5 <= ratio <= 4.5, f"error ratio {ratio:.3f}"))

    ok = True
    for fib in (fibredec.build_fibre("circle", 3), t88):
        spec_obj = fibredec.spectrum_for_predicates(fib)
        if spec_obj.zero_multiplicities() != fib.complex.cohomology_dims():
            ok = False
    out.append(_result("fibredec", "snapped-zero-multiplicities", ok))
    return out


# ---------------------------------------------------------------------------
# radial


def radial_checks() -> list[CheckResult]:
    out = []

    bettis = [(1, 1), (1, 2, 1), (1, 0, 1), (1, 3, 3, 1)]
    ok = True
    for fb in bettis:
        f = len(fb) - 1
        for a in WEIGHT_GRID:
            table = radial.local_cohomology(fb, f, a)
            for k, b in enumerate(fb):
                finite = radial.pullback_norm(k, f, a).finite
                if table.max_dims[k] != (b if finite else 0):
                    ok = False
    out.append(_result("radial", "pullback-localcohomology-triangle", ok))

    ok = True
    for fb in bettis:
        f = len(fb) - 1
        prev = None
        for a in WEIGHT_GRID:
            table = radial.local_cohomology(fb, f, a)
            if any(m > x for m, x in zip(table.min_dims, table.max_dims)):
                ok = False
            if prev is not None and (
                any(x > px for x, px in zip(table.max_dims, prev[0]))
                or any(m > pm for m, pm in zip(table.min_dims, prev[1]))
            ):
                ok = False
            prev = (table.max_dims, table.min_dims)
    out.append(_result("radial", "min-below-max-and-monotone", ok))

    torus = torus_complex()
    rng = random.Random(7)
    ok = True
    for trial in range(4):
        eta = [Fraction(rng.randint(-3, 3)) for _ in range(torus.dim(1))]
        sigma = {0: Fraction(1), trial + 1: Fraction(rng.randint(1, 4), 2)}
        omega = radial.d_cone(radial.scale_radial(radial.radial_pullback(torus, 1, eta), sigma))
        c = Fraction(3, 4)
        sig_c = sum(co * c ** m for m, co in sigma.items())
        eta_prime = radial.radial_pullback(torus, 1, [sig_c * x for x in eta])
        recon = radial.d_cone(eta_prime.add(radial.homotopy_K(omega, c)))
        if not recon.add(omega.negate()).is_zero():
            ok = False
        if not radial.homotopy_bound_holds(omega, 2, 0, c):
            ok = False
    out.append(_result("radial", "homotopy-reconstruction-and-bound", ok))

    # two rational pairs and three surds c ± sqrt(D)/2, each checked in Q
    cases = [(0, 0, 1, Fraction(0)), (1, 1, 3, Fraction(1, 2)), (0, 1, 2, Fraction(0)),
             (0, 49, 2, Fraction(0)), (0, 100, 2, Fraction(0))]
    ok = all(radial.mode_exponent(k, lam2, f, a)[1] for k, lam2, f, a in cases)
    out.append(_result("radial", "exponent-recovery", ok))

    ok = True
    for f in range(0, 6):
        for a in WEIGHT_GRID:
            lo = Fraction(f - 1, 2) - a
            hi = Fraction(f + 1, 2) - a
            for k in range(0, f + 1):
                if lo < k < hi:
                    if radial.min_membership(k, f, a, 1) is not True:
                        ok = False
                    if radial.min_membership(k, f, a, 0) is not False:
                        ok = False
    out.append(_result("radial", "window-dichotomy", ok))
    return out


# ---------------------------------------------------------------------------
# cli / report


def cli_checks(space_names=None) -> list[CheckResult]:
    from edgehodge import report as report_mod

    names = list(space_names or ("cone-torus",))
    config = report_mod.RunConfig({
        "spaces": names,
        "weights": ["0", "1/2"],
        "fibre_grid": [8, 8],
        "suites": [],
    })
    first = report_mod.report_to_json(report_mod.run(config))
    second = report_mod.report_to_json(report_mod.run(config))
    return [_result("cli", "report-determinism", first == second)]


# ---------------------------------------------------------------------------
# orchestration


SUITES = {
    "cochain": lambda names=None: cochain_checks(),
    "stratified": stratified_checks,
    "weights": weights_checks,
    "spectral": lambda names=None: spectral_checks(),
    "fibredec": lambda names=None: fibredec_checks(),
    "radial": lambda names=None: radial_checks(),
    "cli": cli_checks,
}


def run_suites(suite_names=None, space_names=None) -> list[CheckResult]:
    results: list[CheckResult] = []
    for name in suite_names or SUITES:
        try:
            fn = SUITES[name]
        except KeyError:
            raise KeyError(f"unknown suite {name!r}; known: {', '.join(SUITES)}")
        results.extend(fn(space_names))
    return results
