from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peierls.bloch import compute_bands
from peierls.effective import (
    AliasingError,
    HoppingSet,
    InconsistentSymbolError,
    IrrationalFluxError,
    _bloch_fibers,
    assemble_effective,
    bloch_eigenvalue_cloud,
    effective_spectrum,
    field_for_flux,
    fourier_hoppings,
    gauge_shifted_hoppings,
    hopping_decay_fit,
    lambda_scan,
    reconstruct_spectrum,
    subband_groups,
)
from peierls.lattice import bz_grid, dual_shell
from peierls.spectra import hausdorff_distance

FLUXES = st.integers(1, 16).flatmap(
    lambda q: st.integers(-q, q).map(lambda p: Fraction(p, q)))


def test_fourier_hoppings_round_trip(mathieu_bands):
    grid = mathieu_bands.grid
    hops = fourier_hoppings(mathieu_bands.bands[:, 0], grid, radius=8)
    back = hops.resum(grid.coords())[:, 0, 0].real
    assert np.max(np.abs(back - mathieu_bands.bands[:, 0])) < 1e-8
    assert hops.asymmetry < 1e-10


def test_fourier_hoppings_aliasing_guard(mathieu_bands):
    with pytest.raises(AliasingError):
        fourier_hoppings(mathieu_bands.bands[:, 0], mathieu_bands.grid, radius=40)


def test_hopping_decay_fit_positive(mathieu_bands):
    hops = fourier_hoppings(mathieu_bands.bands[:, 0], mathieu_bands.grid, 8)
    c = hopping_decay_fit(hops, k=4)
    assert 0.0 < c < 10.0


def test_flux_ratio_and_field_round_trip(lat2):
    flux = Fraction(3, 7)
    field = field_for_flux(flux, lat2)
    signed_area = float(np.linalg.det(lat2.basis))
    ratio = field.strength * signed_area / (2.0 * np.pi)
    assert abs(ratio - float(flux)) < 1e-14


def test_irrational_flux_rejected(nn_hoppings):
    with pytest.raises(IrrationalFluxError):
        assemble_effective(nn_hoppings, "magnetic_bloch", 0.5)


def test_box_size_guard(nn_hoppings):
    with pytest.raises(ValueError, match="box size"):
        assemble_effective(nn_hoppings, "box", Fraction(0), box_size=0)


def test_zero_flux_bloch_matrix_is_symbol(nn_hoppings):
    k = np.array([0.7, -1.2])
    val = _bloch_fibers(nn_hoppings, Fraction(0), k)[0][0, 0]
    assert abs(val - (-2 * np.cos(0.7) - 2 * np.cos(1.2))) < 1e-12


def test_hofstadter_half_flux_endpoints(nn_hoppings):
    cloud = bloch_eigenvalue_cloud(nn_hoppings, Fraction(1, 2), k_resolution=16)
    assert abs(cloud.min() + 2.0 * np.sqrt(2.0)) < 1e-10
    assert abs(cloud.max() - 2.0 * np.sqrt(2.0)) < 1e-10


def test_subband_counts(nn_hoppings):
    assert subband_groups(nn_hoppings, Fraction(1, 3), k_resolution=16) == 3
    assert subband_groups(nn_hoppings, Fraction(1, 4), k_resolution=16) == 4


def test_box_and_bloch_spectra_agree_at_zero_flux(nn_hoppings):
    win = (-4.5, 4.5)
    box = assemble_effective(nn_hoppings, "box", Fraction(0), box_size=14)
    s_box = effective_spectrum(box, win, merge_tol=0.25)
    blo = assemble_effective(nn_hoppings, "magnetic_bloch", Fraction(0))
    s_blo = effective_spectrum(blo, win, merge_tol=0.25, k_resolution=48)
    d, flagged = hausdorff_distance(s_box, s_blo)
    assert not flagged and d < 0.3


@settings(max_examples=30, deadline=None)
@given(flux=FLUXES, shift=st.tuples(*[st.floats(-np.pi, np.pi)] * 2))
def test_constant_gauge_shift_preserves_box_spectrum(flux, shift, nn_hoppings,
                                                     lat2):
    shifted = gauge_shifted_hoppings(nn_hoppings, shift, lat2)
    a = assemble_effective(nn_hoppings, "box", flux, box_size=6)
    b = assemble_effective(shifted, "box", flux, box_size=6)
    va = np.sort(np.linalg.eigvalsh(a.box_matrix))
    vb = np.sort(np.linalg.eigvalsh(b.box_matrix))
    assert np.max(np.abs(va - vb)) < 1e-9


@pytest.fixture(scope="module")
def separable_band0_hoppings(separable_bands):
    return fourier_hoppings(separable_bands.bands[:, 0], separable_bands.grid,
                            radius=8)


@settings(max_examples=30, deadline=None)
@given(flux=FLUXES, k=st.tuples(*[st.floats(-np.pi, np.pi)] * 2))
def test_peierls_fiber_spectrum_is_even_in_k(flux, k,
                                             separable_band0_hoppings):
    """The even fixture's fiber has one spectrum at k, -k, (-k1, k2) and
    (k1, -k2)."""
    k1, k2 = k
    kpts = [(k1, k2), (-k1, -k2), (-k1, k2), (k1, -k2)]
    spectra = np.linalg.eigvalsh(
        _bloch_fibers(separable_band0_hoppings, flux, kpts))
    assert np.max(np.abs(spectra[1:] - spectra[0])) <= 1e-10


def test_lambda_scan_margin_matches_band_distance(mathieu, lat1):
    grid = bz_grid(lat1, 64)
    shell = dual_shell(lat1, 8.0)
    bands = compute_bands(mathieu, grid, shell, 1)
    hops = fourier_hoppings(bands.bands[:, 0], grid, radius=8)
    lo, hi = bands.bands[:, 0].min(), bands.bands[:, 0].max()
    lam_grid = np.linspace(lo - 0.2, hi + 0.2, 101)
    margins = lambda_scan(hops, Fraction(0), lam_grid, k_resolution=256)
    inside = (lam_grid >= lo) & (lam_grid <= hi)
    assert np.max(margins[inside]) < 2e-3
    assert margins[0] > 0.15 and margins[-1] > 0.15
    rec = reconstruct_spectrum(
        lam_grid, margins, tol=5e-3, window=(lo - 0.2, hi + 0.2), merge_tol=5e-3
    )
    iv = rec.merged_intervals
    assert iv.shape[0] == 1
    assert abs(iv[0, 0] - lo) < 1e-2 and abs(iv[0, 1] - hi) < 1e-2


def _hermitian_hoppings(seed: int, n: int = 2, radius: int = 2) -> HoppingSet:
    """Random hoppings with q_hat_{-alpha} = q_hat_alpha^*."""
    rng = np.random.default_rng(seed)
    hops = {}
    for a in range(-radius, radius + 1):
        for b in range(-radius, radius + 1):
            if (a, b) in hops:
                continue
            blk = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            if (a, b) == (0, 0):
                blk = blk + np.conj(blk.T)
            hops[(a, b)] = blk
            hops[(-a, -b)] = np.conj(blk.T)
    return HoppingSet(n=n, dim=2, hoppings=hops, source_tag="random")


def _reference_fiber(hops: HoppingSet, flux: Fraction, k) -> np.ndarray:
    """The fiber formula of the _bloch_fibers docstring, entry by entry."""
    q, n = flux.denominator, hops.n
    phi = 2.0 * np.pi * float(flux)
    H = np.zeros((q * n, q * n), dtype=complex)
    for (b1, b2), blk in hops.hoppings.items():
        nn = -b2
        for s in range(q):
            sp = (s - b1) % q
            m = (s - b1 - sp) // q
            arg = (0.5 * phi * s * b2 + k[0] * m + 0.5 * phi * q * nn * m
                   + k[1] * nn - 0.5 * phi * sp * nn)
            H[s * n:(s + 1) * n, sp * n:(sp + 1) * n] += blk * np.exp(1j * arg)
    return H


@settings(max_examples=30, deadline=None)
@given(flux=FLUXES, seed=st.integers(0, 2**16),
       k=st.tuples(*[st.floats(-np.pi, np.pi)] * 2))
def test_batched_cloud_matches_per_k_fiber_formula(flux, seed, k):
    hops = _hermitian_hoppings(seed)
    k_res = 3
    axis = 2.0 * np.pi * np.arange(k_res) / k_res
    ref = np.sort(np.concatenate([
        np.linalg.eigvalsh(_reference_fiber(hops, flux, (k1, k2)))
        for k1 in axis for k2 in axis
    ]))
    cloud = bloch_eigenvalue_cloud(hops, flux, k_resolution=k_res)
    assert cloud.shape == ref.shape
    assert np.max(np.abs(cloud - ref)) < 1e-12
    # entrywise at an off-grid k: the cloud of a grid symmetric under
    # k -> -k cannot see the sign of k
    fiber = _bloch_fibers(hops, flux, [k])[0]
    assert np.max(np.abs(fiber - _reference_fiber(hops, flux, k))) < 1e-12


@settings(max_examples=20, deadline=None)
@given(flux=FLUXES)
def test_non_hermitian_hoppings_raise(flux):
    one = np.array([[1.0 + 0j]])
    hops = HoppingSet(n=1, dim=2, source_tag="broken", hoppings={
        (1, 0): -one, (-1, 0): -2.0 * one, (0, 1): -one, (0, -1): -one,
    })
    with pytest.raises(InconsistentSymbolError):
        bloch_eigenvalue_cloud(hops, flux, k_resolution=2)
