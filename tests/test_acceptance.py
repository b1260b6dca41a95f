"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and finishes with a
single machine-readable pass line; tolerances are stated inline.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from peierls.bloch import (assemble_fiber_matrix, band_intervals,
                           compute_bands, one_blas_thread)
from peierls.direct import DirectDiscretization, direct_spectrum
from peierls.effective import (
    bloch_eigenvalue_cloud,
    box_matrix,
    fourier_hoppings,
    gauge_shifted_hoppings,
    hopping_decay_fit,
    lambda_scan,
    reconstruct_spectrum,
    subband_groups,
)
from peierls.grushin import assemble_grushin, invert_grushin, trial_from_section
from peierls.lattice import Lattice, bz_grid, dual_shell
from peierls.magnetic import (
    BoxGrid,
    MagneticField,
    VectorPotential,
    quantize_on_grid,
    relativistic_sqrt_compare,
)
from peierls.section import (
    apply_permutation,
    conj_reflect,
    negation_permutation,
    shift_permutation,
    transport_section,
)
from peierls.spectra import (
    SpectrumSet,
    from_intervals,
    hausdorff_distance,
    lipschitz_fit,
)
from peierls.symbols import Nonrelativistic, PeriodicSymbol, zero_potential

# Frozen reference values for the d=1 cosine fixture (-u'' + cos(y)),
# computed by dense plane-wave diagonalization with modes |n| <= 128.
ORACLE_LAM1_0 = -0.37848922126213247
ORACLE_LAM1_HALF = -0.34766912531029526
ORACLE_LAM2_HALF = 0.5947999701185106
ORACLE_LAM2_0 = 0.9180581766158671
ORACLE_J1 = (ORACLE_LAM1_0, ORACLE_LAM1_HALF)
ORACLE_J2 = (ORACLE_LAM2_HALF, ORACLE_LAM2_0)


@pytest.fixture(scope="module", autouse=True)
def _one_blas_thread():
    """Every criterion runs with the BLAS at one thread, as the CLI does,
    so the values it prints do not depend on the caller's thread count."""
    with one_blas_thread():
        yield


def _report(num, detail):
    print(f"criterion {num}: PASS — {detail}")


# ------------------------------------------------------------ criterion 1


def test_criterion_01_free_band_exactness(lat1):
    free = PeriodicSymbol(Nonrelativistic(), zero_potential(lat1))
    grid = bz_grid(lat1, 64)
    shell = dual_shell(lat1, 8.0)
    t0 = time.perf_counter()
    bands = compute_bands(free, grid, shell, 3)
    elapsed = time.perf_counter() - t0
    ns = np.arange(-8, 9)
    worst = 0.0
    for i, t in enumerate(grid.coords()[:, 0]):
        exact = np.sort((t + ns) ** 2)[:3]
        worst = max(worst, float(np.max(np.abs(bands.bands[i] - exact))))
    assert worst <= 1e-10
    assert elapsed < 1.0
    _report(1, f"max error {worst:.2e} <= 1e-10, runtime {elapsed:.2f}s < 1s")


# ------------------------------------------------------------ criterion 2


def test_criterion_02_mathieu_convergence(mathieu, lat1):
    grid = bz_grid(lat1, 64)
    shell = dual_shell(lat1, 64.0)
    bands = compute_bands(mathieu, grid, shell, 2)
    lam1_0 = bands.bands[grid.index_of_zero(), 0]
    err0 = abs(lam1_0 - ORACLE_LAM1_0)
    assert err0 <= 1e-10
    iv = band_intervals(bands).intervals
    err_j = max(
        abs(iv[0, 0] - ORACLE_J1[0]),
        abs(iv[0, 1] - ORACLE_J1[1]),
        abs(iv[1, 0] - ORACLE_J2[0]),
        abs(iv[1, 1] - ORACLE_J2[1]),
    )
    assert err_j <= 1e-8
    _report(2, f"lambda_1(0) error {err0:.2e} <= 1e-10, "
               f"interval error {err_j:.2e} <= 1e-8")


# ------------------------------------------------------------ criterion 3


def test_criterion_03_zero_field_scan_reconstruction(mathieu, lat1):
    t0 = time.perf_counter()
    grid = bz_grid(lat1, 64)
    shell = dual_shell(lat1, 8.0)
    bands = compute_bands(mathieu, grid, shell, 1)
    hops = fourier_hoppings(bands.bands[:, 0], grid, radius=8)
    window = (ORACLE_J1[0] - 0.1, ORACLE_J1[1] + 0.1)
    lam_grid = np.linspace(window[0], window[1], 400)
    cell = lam_grid[1] - lam_grid[0]
    margins = lambda_scan(hops, Fraction(0), lam_grid, k_resolution=512)
    rec = reconstruct_spectrum(lam_grid, margins, tol=cell, window=window,
                               merge_tol=2.0 * cell)
    elapsed = time.perf_counter() - t0
    iv = rec.merged_intervals
    assert iv.shape[0] == 1
    dev = max(abs(iv[0, 0] - ORACLE_J1[0]), abs(iv[0, 1] - ORACLE_J1[1]))
    assert dev <= cell + 1e-12
    assert elapsed < 30.0
    _report(3, f"reconstruction endpoint error {dev:.2e} <= grid cell "
               f"{cell:.2e}, runtime {elapsed:.1f}s < 30s")


# ------------------------------------------------------------ criterion 4


def test_criterion_04_grushin_identity(mathieu, mathieu_bands):
    family = trial_from_section(transport_section(mathieu_bands))
    pts = mathieu_bands.grid.points()
    rng = np.random.default_rng(2024)
    lam_lo = mathieu_bands.bands[:, 0].min() - 0.5
    lam_hi = mathieu_bands.bands[:, 0].max() + 0.5
    worst_resid = 0.0
    worst_dev = 0.0
    for _ in range(20):
        i = int(rng.integers(0, pts.shape[0]))
        lam = float(rng.uniform(lam_lo, lam_hi))
        fm = assemble_fiber_matrix(mathieu, pts[i], mathieu_bands.shell)
        inv = invert_grushin(assemble_grushin(fm, lam, family, i))
        worst_resid = max(worst_resid, inv.residual)
        dev = abs(inv.e_minus_plus[0, 0] - (lam - mathieu_bands.bands[i, 0]))
        worst_dev = max(worst_dev, dev)
    assert worst_resid <= 1e-8
    assert worst_dev <= 1e-8
    _report(4, f"20 samples: inverse residual {worst_resid:.2e} <= 1e-8, "
               f"effective-block deviation {worst_dev:.2e} <= 1e-8")


# ------------------------------------------------------------ criterion 5


def _section_suite(symbol, resolution):
    """Return (kappa, worst deviations) for the transported section."""
    lat = symbol.lattice
    d = lat.dim
    grid = bz_grid(lat, resolution)
    shell = dual_shell(lat, 8.0)
    bands = compute_bands(symbol, grid, shell, 1, 0)
    sec = transport_section(bands)
    res = resolution
    vecs = sec.vectors
    neg = negation_permutation(shell)

    norm_dev = float(np.max(np.abs(np.linalg.norm(vecs, axis=1) - 1.0)))

    pts = grid.points()
    resid = 0.0
    for i in range(pts.shape[0]):
        H = assemble_fiber_matrix(symbol, pts[i], shell).entries
        v = vecs[i]
        lam = float(np.real(np.vdot(v, H @ v)))
        resid = max(resid, float(np.linalg.norm(H @ v - lam * v)))

    def edge_residual(v, xi):
        nv = np.linalg.norm(v)
        H = assemble_fiber_matrix(symbol, xi, shell).entries
        u = v / nv
        lam = float(np.real(np.vdot(u, H @ u)))
        return max(abs(nv - 1.0), float(np.linalg.norm(H @ u - lam * u)))

    coords = grid.axis_coords
    equiv = 0.0
    if d == 1:
        s1 = shift_permutation(shell, [1])
        edge = apply_permutation(vecs[0], s1)
        equiv = edge_residual(edge, np.array([0.5]) @ lat.dual)
        conj = max(
            float(np.linalg.norm(vecs[i] - conj_reflect(vecs[res - i], neg)))
            for i in range(1, res)
        )
    else:
        s1 = shift_permutation(shell, [1, 0])
        s2 = shift_permutation(shell, [0, 1])
        for i1 in range(res):
            edge = apply_permutation(vecs[i1 * res], s2)
            xi = np.array([coords[i1], 0.5]) @ lat.dual
            equiv = max(equiv, edge_residual(edge, xi))
        for i2 in range(res):
            edge = apply_permutation(vecs[i2], s1)
            xi = np.array([0.5, coords[i2]]) @ lat.dual
            equiv = max(equiv, edge_residual(edge, xi))
        i0 = res // 2
        conj = 0.0
        for i1 in range(1, res):
            for i2 in range(1, res):
                a = vecs[i1 * res + i2]
                b = conj_reflect(
                    vecs[(2 * i0 - i1) * res + (2 * i0 - i2)], neg
                )
                conj = max(conj, float(np.linalg.norm(a - b)))
    return sec.phase_log["kappa"], norm_dev, resid, equiv, conj


@pytest.mark.parametrize("fixture_name", ["mathieu", "separable"])
def test_criterion_05_section_suite(fixture_name, request):
    symbol = request.getfixturevalue(fixture_name)
    kappas = {}
    worst = {"norm": 0.0, "resid": 0.0, "equiv": 0.0, "conj": 0.0}
    for res in (32, 64):
        kappa, norm_dev, resid, equiv, conj = _section_suite(symbol, res)
        kappas[res] = kappa
        worst["norm"] = max(worst["norm"], norm_dev)
        worst["resid"] = max(worst["resid"], resid)
        worst["equiv"] = max(worst["equiv"], equiv)
        worst["conj"] = max(worst["conj"], conj)
    assert worst["norm"] <= 1e-10
    assert worst["resid"] <= 1e-8
    assert worst["equiv"] <= 1e-8
    assert worst["conj"] <= 1e-8
    kappa_drift = abs(kappas[32] - kappas[64])
    assert kappa_drift <= 1e-6
    _report(5, f"{fixture_name}: norm {worst['norm']:.1e} <= 1e-10, "
               f"residual {worst['resid']:.1e} <= 1e-8, "
               f"equivariance {worst['equiv']:.1e} <= 1e-8, "
               f"conjugation {worst['conj']:.1e} <= 1e-8, "
               f"kappa drift {kappa_drift:.1e} <= 1e-6")


# ------------------------------------------------------------ criterion 6


def test_criterion_06_gauge_covariance(nn_hoppings, lat2):
    field = MagneticField(0.5)
    grid = BoxGrid(dim=2, n=12, length=4.0)
    base = VectorPotential(field)
    shifted = VectorPotential(field, chi="quadratic")
    pot = lambda z: np.cos(z[0]) + 0.5 * np.cos(z[1])  # noqa: E731
    kin = lambda e: float(e @ e)  # noqa: E731
    v0 = np.sort(np.linalg.eigvalsh(
        quantize_on_grid(kin, base, grid, pot)))
    v1 = np.sort(np.linalg.eigvalsh(
        quantize_on_grid(kin, shifted, grid, pot)))
    dev_weyl = float(np.max(np.abs(v0 - v1)))
    assert dev_weyl <= 1e-9

    shifted_hops = gauge_shifted_hoppings(nn_hoppings, [0.4, -0.9], lat2)
    a = box_matrix(nn_hoppings, Fraction(1, 3), 7)
    b = box_matrix(shifted_hops, Fraction(1, 3), 7)
    dev_lat = float(np.max(np.abs(
        np.sort(np.linalg.eigvalsh(a)) - np.sort(np.linalg.eigvalsh(b))
    )))
    assert dev_lat <= 1e-9
    _report(6, f"quantizer spectra deviation {dev_weyl:.1e} <= 1e-9, "
               f"lattice-operator deviation {dev_lat:.1e} <= 1e-9")


# ------------------------------------------------------------ criterion 7


def test_criterion_07_hofstadter_cross_validation(nn_hoppings):
    cloud = bloch_eigenvalue_cloud(nn_hoppings, Fraction(1, 2),
                                   k_resolution=16)
    dev = max(abs(cloud.min() + 2.0 * np.sqrt(2.0)),
              abs(cloud.max() - 2.0 * np.sqrt(2.0)))
    assert dev <= 1e-8
    counts = {
        Fraction(1, 3): subband_groups(nn_hoppings, Fraction(1, 3)),
        Fraction(1, 4): subband_groups(nn_hoppings, Fraction(1, 4)),
        Fraction(2, 5): subband_groups(nn_hoppings, Fraction(2, 5)),
    }
    for flux, count in counts.items():
        assert count == flux.denominator
    _report(7, f"half-flux endpoint deviation {dev:.1e} <= 1e-8, "
               f"subband counts {[c for c in counts.values()]} == [3, 4, 5]")


# ----------------------------------------------------- criteria 8 and 9


MERGE_TOL = 2e-3
EPS_FLUX = [
    (0.08, Fraction(1, 4)),
    (0.04, Fraction(1, 8)),
    (0.02, Fraction(1, 16)),
]


@pytest.fixture(scope="module")
def compare_pipeline(separable):
    """Shared effective-vs-direct comparison across epsilon values."""
    t0 = time.perf_counter()
    lat = separable.lattice
    grid = bz_grid(lat, 32)
    shell = dual_shell(lat, 6.0)
    bands = compute_bands(separable, grid, shell, 1)
    band = bands.bands[:, 0]
    window = (band.min() - 0.08, band.max() + 0.08)
    hops = fourier_hoppings(band, grid, radius=8)
    runs = []
    for eps, flux in EPS_FLUX:
        eff = SpectrumSet(points=bloch_eigenvalue_cloud(hops, flux, 24),
                          window=window, merge_tol=MERGE_TOL)
        disc = DirectDiscretization(separable, flux, points_per_cell=16)
        direct_set = direct_spectrum(disc, window, MERGE_TOL,
                                     k_resolution=4)
        runs.append({"eps": eps, "flux": flux, "eff": eff,
                     "direct": direct_set, "disc": disc})
    zero = DirectDiscretization(separable, Fraction(0), points_per_cell=16)
    zero_set = direct_spectrum(zero, window, MERGE_TOL, k_resolution=8)
    gap_window = (-0.5, 0.0)
    gap_counts = [
        direct_spectrum(run["disc"], gap_window, MERGE_TOL,
                        k_resolution=4).points.size
        for run in runs[-2:]
    ]
    zero_gap = direct_spectrum(zero, gap_window, MERGE_TOL,
                               k_resolution=8).points.size
    elapsed = time.perf_counter() - t0
    return {"window": window, "runs": runs, "zero_set": zero_set,
            "gap_counts": gap_counts, "zero_gap": zero_gap,
            "elapsed": elapsed}


def test_criterion_08_effective_direct_equivalence(compare_pipeline):
    dists = []
    for run in compare_pipeline["runs"]:
        d, flagged = hausdorff_distance(run["eff"], run["direct"])
        assert not flagged
        assert d <= 5.0 * MERGE_TOL
        dists.append(d)
    for a, b in zip(dists, dists[1:]):
        assert b <= 1.25 * a  # nonincreasing within 25% slack
    _report(8, "d_H(effective, direct) = "
               + ", ".join(f"{d:.4f}" for d in dists)
               + f" <= {5.0 * MERGE_TOL:.4f}, nonincreasing within 25%")


def test_criterion_09_lipschitz_gap_stability(compare_pipeline):
    pairs = []
    for run in compare_pipeline["runs"]:
        d, flagged = hausdorff_distance(run["direct"],
                                        compare_pipeline["zero_set"])
        assert not flagged
        pairs.append((run["eps"], d))
    fit = lipschitz_fit(pairs)
    assert np.isfinite(fit.fitted_slope)
    assert fit.residual <= 0.25
    assert fit.max_ratio <= 1.25 * fit.fitted_slope
    assert compare_pipeline["zero_gap"] == 0
    assert all(c == 0 for c in compare_pipeline["gap_counts"])
    assert compare_pipeline["elapsed"] < 600.0
    _report(9, f"d_H/eps fitted C = {fit.fitted_slope:.3f}, residual "
               f"{fit.residual:.1%} <= 25%, gap window stays empty at the "
               f"two smallest eps, pipeline {compare_pipeline['elapsed']:.0f}s"
               " < 600s")


# ------------------------------------------------------------ criterion 10


def test_criterion_10_relativistic_comparison():
    grid1 = BoxGrid(dim=1, n=64, length=2.0 * np.pi)
    dev1 = relativistic_sqrt_compare(0.5, grid1, [0.0])[0.0]
    assert dev1 <= 1e-9
    grid2 = BoxGrid(dim=2, n=24, length=4.0)
    epsilons = [0.4, 0.2, 0.1]
    out = relativistic_sqrt_compare(0.5, grid2, [0.0] + epsilons)
    assert out[0.0] <= 1e-9
    ratios = [out[e] / e for e in epsilons]
    assert all(np.isfinite(ratios))
    for a, b in zip(ratios, ratios[1:]):
        assert b <= 1.10 * a  # nonincreasing over halvings within 10%
    _report(10, f"zero-field deviation {max(dev1, out[0.0]):.1e} <= 1e-9, "
                f"deviation/eps ratios {[round(r, 3) for r in ratios]} "
                "nonincreasing within 10%")


# ------------------------------------------------------------ criterion 11


def test_criterion_11_utility_properties(mathieu_bands):
    win = (0.0, 10.0)
    a = from_intervals([(1.0, 2.0)], win, 0.05)
    b = from_intervals([(1.5, 3.0), (4.0, 4.2)], win, 0.05)
    c = from_intervals([(0.5, 0.5), (6.0, 7.0)], win, 0.05)
    dev = 0.0
    for s, t in ((a, b), (b, c), (a, c)):
        dst, _ = hausdorff_distance(s, t)
        dts, _ = hausdorff_distance(t, s)
        dev = max(dev, abs(dst - dts))
    for s in (a, b, c):
        dss, _ = hausdorff_distance(s, s)
        dev = max(dev, dss)
    dab, _ = hausdorff_distance(a, b)
    dac, _ = hausdorff_distance(a, c)
    dcb, _ = hausdorff_distance(c, b)
    assert dab <= dac + dcb + 1e-12
    assert dev <= 1e-12

    grid = mathieu_bands.grid
    hops = fourier_hoppings(mathieu_bands.bands[:, 0], grid, radius=8)
    round_trip = float(np.max(np.abs(
        hops.resum(grid.coords())[:, 0, 0].real - mathieu_bands.bands[:, 0]
    )))
    assert round_trip <= 1e-8
    decay = hopping_decay_fit(hops)
    assert decay > 0.0
    _report(11, f"metric-axiom deviation {dev:.1e} <= 1e-12, Fourier "
                f"round-trip {round_trip:.1e} <= 1e-8, decay constant "
                f"{decay:.3f} > 0")
