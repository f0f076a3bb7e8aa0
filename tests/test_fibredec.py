import math
import time

import numpy as np
import pytest

from edgehodge import fibredec
from edgehodge.cochain import QMatrix
from edgehodge.fibredec import (
    build_fibre,
    certify_circle_spectrum,
    circle_mode_eigenvalue,
    export_spectrum_csv,
    spectrum_for_predicates,
)

from oracles import circle_discrete_eigenvalue, fibre_spectrum, laplacian_matrix


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
    assert t.weights == p.weights


def test_degenerate_sizes_rejected():
    with pytest.raises(ValueError):
        build_fibre("circle", 2)


def test_grid_bound_refuses_before_any_eigenvalue(monkeypatch):
    def no_eigenvalues(*args):
        raise AssertionError("an eigenvalue was formed")
    monkeypatch.setattr(fibredec, "circle_mode_eigenvalue", no_eigenvalues)
    assert build_fibre("torus", (1000, 1000)).sizes == (1000, 1000)
    with pytest.raises(ValueError, match="1001000 mode tuples, more than the 1000000"):
        build_fibre("torus", (1000, 1001))
    with pytest.raises(ValueError, match="mode tuples"):
        build_fibre("circle", 10 ** 8)
    with pytest.raises(AssertionError):
        spectrum_for_predicates(build_fibre("circle", 4))


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
    res = fibre_spectrum(fib, 1, 4)
    assert res.harmonic_dim == 2
    assert res.eigenvalues[0] < 1e-12 and res.eigenvalues[1] < 1e-12


@pytest.mark.parametrize("kind, sizes, scale", [
    ("circle", 3, None),
    ("circle", 64, 2 * math.pi),
    ("torus", (8, 8), None),
    ("torus", (16, 16), None),
    ("torus", (6, 8), (2.0, 5.5)),
    # lowest nonzero mode 0.26 against a norm near 3.7e7
    ("torus", (8, 8), (0.001, 12.0)),
    ("product", (4, 5, 6), None),
], ids=lambda v: str(v))
def test_dense_oracle_harmonic_dims_are_betti_numbers(kind, sizes, scale):
    fib = build_fibre(kind, sizes, scale)
    dims = tuple(fibre_spectrum(fib, q, 1).harmonic_dim for q in range(fib.top_degree + 1))
    assert dims == tuple(math.comb(fib.top_degree, q) for q in range(fib.top_degree + 1))


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
    # zero modes are stored exactly
    assert spec.eigenvalues(1)[0] == (0, 2)


def test_laplacian_symmetric_and_psd():
    fib = build_fibre("torus", (6, 8))
    for q in range(3):
        s = laplacian_matrix(fib, q)
        assert np.max(np.abs(s - s.T)) <= 1e-15 * max(1.0, np.max(np.abs(s)))
        vals = np.linalg.eigvalsh(s)
        assert vals[0] > -1e-10


@pytest.mark.parametrize("kind, sizes, scale", [
    ("circle", 3, None),
    ("circle", 12, 1.5),
    ("circle", 16, math.pi),
    ("torus", (6, 8), (2.0, 5.5)),
    ("torus", (8, 8), (0.001, 12.0)),
    ("product", (4, 5, 6), (1.0, 2.5, 3.0)),
], ids=lambda v: str(v))
def test_package_laplacian_matches_dense_reference(kind, sizes, scale):
    fib = build_fibre(kind, sizes, scale)
    for q in range(fib.top_degree + 1):
        s = fibredec.laplacian_matrix(fib, q)
        assert all(list(col) == row for row, col in zip(s, zip(*s))), q
        want = laplacian_matrix(fib, q)
        assert np.max(np.abs(np.array(s) - want)) <= 1e-15 * np.max(np.abs(want)), q


def test_circle_laplacian_is_scaled_dtd():
    # what lets verify read the circle's spectrum from certify_circle_spectrum
    n, length = 24, 2 * math.pi
    fib = build_fibre("circle", n, length)
    d = fib.complex.d_at(0)
    dtd = np.array((d.transpose() @ d).entries, dtype=float)
    s = np.array(fibredec.laplacian_matrix(fib, 0))
    assert np.allclose(s, (n / length) ** 2 * dtd, rtol=1e-14, atol=0)


def _cycle_dtd(n):
    d = build_fibre("circle", n).complex.d_at(0)
    return d.transpose() @ d


@pytest.mark.parametrize("n", range(3, 65))
def test_certificate_accepts_the_cycle(n):
    assert certify_circle_spectrum(_cycle_dtd(n))


def test_certificate_rejects_wrong_operators():
    n = 12
    path_d = QMatrix(n - 1, n, [[-int(j == e) + int(j == e + 1) for j in range(n)]
                                for e in range(n - 1)])
    assert not certify_circle_spectrum(path_d.transpose() @ path_d)
    good = [list(row) for row in _cycle_dtd(n).entries]
    for i, j in ((0, 0), (0, 1), (5, 4)):
        bad = [list(row) for row in good]
        bad[i][j] *= 2
        assert not certify_circle_spectrum(QMatrix(n, n, bad)), (i, j)
    # the path's Laplacian has the cycle's trace once its ends are raised
    # to 2, but not its spectrum
    ends = [list(row) for row in (path_d.transpose() @ path_d).entries]
    ends[0][0] = ends[-1][-1] = 2
    assert not certify_circle_spectrum(QMatrix(n, n, ends))
    assert not certify_circle_spectrum(QMatrix(n, n + 1, [[0] * (n + 1)] * n))
    # a relabelled cycle P dᵀd Pᵀ has the cycle's spectrum, but the
    # certificate reads the circulant in the cycle's own vertex order
    perm = [(3 * i) % n for i in range(n // 3)] + [i for i in range(n) if i % 3]
    relabelled = [[good[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    assert sorted(perm) == list(range(n)) and perm != list(range(n))
    assert not certify_circle_spectrum(QMatrix(n, n, relabelled))


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
    # one short circle and one long one: lowest nonzero modes near 0.26,
    # largest near 3.7e7, so no relative tolerance separates the zeros
    ("torus", (8, 8), (0.001, 12.0)),
    ("product", (4, 5, 6), None),
    ("product", (3, 3, 3, 3), (1.0, 2.0, 3.0, 4.0)),
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


@pytest.mark.parametrize("kind, sizes", [
    *(("circle", n) for n in range(3, 10)),
    ("torus", (6, 8)),
    ("torus", (16, 16)),
    ("product", (4, 5, 6)),
    ("product", (3, 3, 3, 3)),
], ids=lambda v: str(v))
def test_kunneth_betti_matches_full_reduction(kind, sizes):
    fib = build_fibre(kind, sizes)
    spec = spectrum_for_predicates(fib)
    # the zero modes come from the mode tuples, not the product complex
    assert "complex" not in vars(fib)
    assert spec.betti == fib.complex.cohomology_dims()


def test_product_of_eight_circles_is_fast_and_exact():
    fib = build_fibre("product", (3,) * 8)
    t0 = time.perf_counter()
    spec = spectrum_for_predicates(fib, count=1)
    elapsed = time.perf_counter() - t0
    assert spec.zero_multiplicities() == tuple(math.comb(8, q) for q in range(9))
    assert all(len(spec.eigenvalues(q)) == 2 for q in spec.degrees())
    assert elapsed < 0.05


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
    fib = build_fibre("product", (5, 6, 4), scale=(1.0, 2.5, 3.0))
    levels = [np.zeros(1)]
    for n, length in zip(fib.sizes, fib.lengths):
        circ = np.array([circle_mode_eigenvalue(n, length, m) for m in range(n)])
        sums = [np.add.outer(lv, circ).ravel() for lv in levels]
        levels = [np.concatenate(sums[max(q - 1, 0):q + 1]) for q in range(len(sums) + 1)]
    spec = spectrum_for_predicates(fib, count=max(len(lv) for lv in levels))
    got = [[float(v) for v, m in spec.eigenvalues(q) for _ in range(m)]
           for q in spec.degrees()]
    assert got == [np.sort(lv).tolist() for lv in levels]
    assert [spec.eigenvalues(q)[0] for q in spec.degrees()] == [(0, 1), (0, 3), (0, 3), (0, 1)]
