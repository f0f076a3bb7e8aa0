import math

import numpy as np
import pytest

from edgehodge.errors import UnderResolvedSpectrumError
from edgehodge.fibredec import (
    build_fibre,
    circle_mode_eigenvalue,
    export_spectrum_csv,
    fibre_spectrum,
    laplacian_matrix,
    spectrum_for_predicates,
)

from oracles import circle_discrete_eigenvalue


def test_build_circle_cell_counts():
    fib = build_fibre("circle", 8)
    assert fib.complex.dims == (8, 8)
    assert fib.complex.verify()


def test_build_torus_cell_counts():
    fib = build_fibre("torus", (8, 8))
    assert fib.complex.dims == (64, 128, 64)
    assert fib.complex.verify()


def test_torus_equals_product_of_circles():
    t = build_fibre("torus", (8, 6))
    p = build_fibre("product", (8, 6))
    assert t.complex == p.complex
    assert all((a == b).all() for a, b in zip(t.weights, p.weights))


def test_degenerate_sizes_rejected():
    with pytest.raises(ValueError):
        build_fibre("circle", 2)


def test_circle_spectrum_against_analytic_discrete_oracle():
    n, L = 64, 2 * math.pi
    fib = build_fibre("circle", n, L)
    res = fibre_spectrum(fib, 0, 6)
    # frozen oracle values: (2n/L sin(pi m/n))^2 for m = 0,1,1,2,2,3
    for got, m in zip(res.eigenvalues, (0, 1, 1, 2, 2, 3)):
        assert abs(got - circle_discrete_eigenvalue(n, L, m)) < 1e-10
    assert abs(res.eigenvalues[1] - 1.0) < 0.01
    assert circle_mode_eigenvalue(n, L, 1) == pytest.approx(res.eigenvalues[1])


def test_circle_mesh_convergence_rate():
    L = 2 * math.pi
    errs = {}
    for n in (32, 64):
        fib = build_fibre("circle", n, L)
        errs[n] = abs(fibre_spectrum(fib, 0, 2).eigenvalues[1] - 1.0)
    assert 3.5 <= errs[32] / errs[64] <= 4.5


def test_torus_one_form_harmonics():
    fib = build_fibre("torus", (8, 8))
    res = fibre_spectrum(fib, 1, 4, tol=1e-8)
    assert res.harmonic_dim == 2
    assert res.eigenvalues[0] < 1e-12 and res.eigenvalues[1] < 1e-12


def test_constants_harmonic_any_fibre():
    for fib in (build_fibre("circle", 5), build_fibre("torus", (4, 5))):
        res = fibre_spectrum(fib, 0, 1)
        assert res.eigenvalues[0] < 1e-12


def test_scaled_circle_shifts_spectrum():
    fib = build_fibre("circle", 64, scale=math.pi)
    res = fibre_spectrum(fib, 0, 2)
    assert abs(res.eigenvalues[1] - 4.0) < 0.05


def test_coarse_circle_still_has_correct_harmonics():
    spec = spectrum_for_predicates(build_fibre("circle", 3))
    assert spec.zero_multiplicities() == (1, 1)


def test_spectrum_for_predicates_torus_16():
    spec = spectrum_for_predicates(build_fibre("torus", (16, 16)))
    assert spec.zero_multiplicities() == (1, 2, 1)
    assert spec.betti == (1, 2, 1)
    # snapped zeros are stored exactly
    assert spec.eigenvalues(1)[0] == (0, 2)


def test_laplacian_symmetric_and_psd():
    fib = build_fibre("torus", (6, 8))
    for q in range(3):
        s = laplacian_matrix(fib, q)
        assert np.max(np.abs(s - s.T)) <= 1e-15 * max(1.0, np.max(np.abs(s)))
        vals = np.linalg.eigvalsh(s)
        assert vals[0] > -1e-10


def test_torus_hodge_duality_of_spectra():
    spec = spectrum_for_predicates(build_fibre("torus", (8, 8)), count=12)
    s0 = [float(v) for v, m in spec.eigenvalues(0) for _ in range(m)]
    s2 = [float(v) for v, m in spec.eigenvalues(2) for _ in range(m)]
    assert len(s0) == len(s2)
    assert np.allclose(s0, s2, atol=1e-9)


def _dense_spectrum(fib, q):
    return np.sort(np.linalg.eigvalsh(laplacian_matrix(fib, q)))


def _closed_form_spectrum(fib):
    spec = spectrum_for_predicates(fib, count=max(fib.complex.dims))
    return [np.array([float(v) for v, m in spec.eigenvalues(q) for _ in range(m)])
            for q in spec.degrees()]


@pytest.mark.parametrize("kind, sizes, scale", [
    *(("circle", n, length) for n in range(3, 10) for length in (2 * math.pi, 1.5)),
    ("torus", (6, 8), (2.0, 5.5)),
    ("product", (4, 5, 6), None),
], ids=lambda v: str(v))
def test_closed_form_spectrum_matches_dense_oracle(kind, sizes, scale):
    fib = build_fibre(kind, sizes, scale)
    got = _closed_form_spectrum(fib)
    assert len(got) == fib.top_degree + 1
    for q in range(fib.top_degree + 1):
        want = _dense_spectrum(fib, q)
        assert got[q].shape == want.shape
        norm = max(1.0, want[-1])
        assert np.max(np.abs(got[q] - want)) <= 1e-12 * norm, q


def test_closed_form_degenerate_modes_are_equal():
    # modes m and n - m of a circle carry the same eigenvalue, bit for bit
    for n in (5, 9, 16):
        for m in range(1, n):
            assert circle_mode_eigenvalue(n, 1.5, m) == circle_mode_eigenvalue(n, 1.5, n - m)
    spec = spectrum_for_predicates(build_fibre("circle", 9), count=8)
    vals = [v for v, _ in spec.eigenvalues(0)[1:]]
    assert vals[0::2] == vals[1::2]


def test_under_resolution_is_an_error():
    fib = build_fibre("torus", (4, 4))
    with pytest.raises(UnderResolvedSpectrumError):
        # absurd tolerance turns near-zero modes into spurious harmonics
        spectrum_for_predicates(fib, tol=0.5)


def test_count_larger_than_space_rejected():
    with pytest.raises(ValueError):
        fibre_spectrum(build_fibre("circle", 4), 0, 9)


def test_csv_export(tmp_path):
    spec = spectrum_for_predicates(build_fibre("circle", 6), count=3)
    out = tmp_path / "spec.csv"
    export_spectrum_csv(str(out), spec)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "degree,index,eigenvalue"
    assert lines[1].startswith("0,0,0")


def test_product_eigenvalues_equal_numpy_outer_sums():
    # reference: the Künneth sums built with numpy outer sums and a sort
    from edgehodge.fibredec import _product_eigenvalues

    fib = build_fibre("product", (5, 6, 4), scale=(1.0, 2.5, 3.0))
    levels = [np.zeros(1)]
    for n, length in zip(fib.sizes, fib.lengths):
        circ = np.array([circle_mode_eigenvalue(n, length, m) for m in range(n)])
        sums = [np.add.outer(lv, circ).ravel() for lv in levels]
        levels = [np.concatenate(sums[max(q - 1, 0):q + 1]) for q in range(len(sums) + 1)]
    assert _product_eigenvalues(fib) == [np.sort(lv).tolist() for lv in levels]
