import tracemalloc
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peierls import effective
from peierls.bloch import compute_bands
from peierls.direct import DirectDiscretization
from peierls.effective import (
    HoppingSet,
    InconsistentSymbolError,
    _bloch_operator,
    bloch_eigenvalue_cloud,
    box_matrix,
    fourier_hoppings,
    gauge_shifted_hoppings,
    hopping_decay_fit,
    lambda_scan,
    reconstruct_spectrum,
    subband_groups,
)
from peierls.lattice import (InputError, Lattice, bz_grid, dual_shell,
                             tensor_grid)
from peierls.magnetic import (BlochOperator, VectorPotential, bloch_operator,
                              field_for_flux, line_phase)
from peierls.spectra import SpectrumSet, hausdorff_distance

FLUXES = st.integers(1, 16).flatmap(
    lambda q: st.integers(-q, q).map(lambda p: Fraction(p, q)))


def test_fourier_hoppings_round_trip(mathieu_bands):
    grid = mathieu_bands.grid
    hops = fourier_hoppings(mathieu_bands.bands[:, 0], grid, radius=8)
    back = hops.resum(grid.coords())[:, 0, 0].real
    assert np.max(np.abs(back - mathieu_bands.bands[:, 0])) < 1e-8
    assert hops.asymmetry < 1e-10


def test_fourier_hoppings_aliasing_guard(mathieu_bands):
    with pytest.raises(InputError, match="cannot resolve hopping radius"):
        fourier_hoppings(mathieu_bands.bands[:, 0], mathieu_bands.grid, radius=40)


def test_hopping_decay_fit_positive(mathieu_bands):
    hops = fourier_hoppings(mathieu_bands.bands[:, 0], mathieu_bands.grid, 8)
    c = hopping_decay_fit(hops)
    assert 0.0 < c < 10.0


def test_flux_ratio_and_field_round_trip(lat2):
    flux = Fraction(3, 7)
    field = field_for_flux(flux, lat2)
    signed_area = float(np.linalg.det(lat2.basis))
    ratio = field.b12 * signed_area / (2.0 * np.pi)
    assert abs(ratio - float(flux)) < 1e-14


def test_irrational_flux_rejected(nn_hoppings):
    with pytest.raises(InputError, match="exact Fraction"):
        bloch_eigenvalue_cloud(nn_hoppings, 0.5, k_resolution=4)
    with pytest.raises(InputError, match="exact Fraction"):
        box_matrix(nn_hoppings, 0.5, half_width=2)


def test_box_size_guard(nn_hoppings):
    with pytest.raises(InputError, match="box size"):
        box_matrix(nn_hoppings, Fraction(0), half_width=0)


def test_box_matrix_is_bounded(nn_hoppings, monkeypatch):
    # the dense matrix grows as half_width^(2d): at a limit of 2**12 entries
    # half_width 3 in d=2 (49 x 49) is built and half_width 4 (81 x 81) is not
    monkeypatch.setattr(effective, "MAX_FIBER_ENTRIES", 2**12)
    assert box_matrix(nn_hoppings, Fraction(1, 4), 3).shape == (49, 49)
    with pytest.raises(InputError, match="half_width 4 .* limit"):
        box_matrix(nn_hoppings, Fraction(1, 4), 4)


def test_box_matrix_memory_is_that_of_its_matrix():
    # no Hermiticity check forms M - M^*: a d=1 box of 801 sites peaks at
    # its own 10 MB matrix, not three of them
    hops = HoppingSet(hoppings={
        (a,): np.array([[0.3 / (1 + abs(a))]], dtype=complex)
        for a in range(-8, 9)}, asymmetry=0.0)
    tracemalloc.start()
    try:
        M = box_matrix(hops, Fraction(0), 400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert M.shape == (801, 801)
    assert peak < 1.3 * M.nbytes


def _dirichlet_box_reference(hops, flux, half_width, origin):
    """box_matrix built as a Dirichlet box on the sites origin + i,
    0 <= i_ax <= 2 half_width: a hop that leaves the box is dropped before
    any phase is computed, and the hops alpha = 0 and alpha > 0 that stay
    carry their line phase, closed by their adjoints."""
    d, side = hops.dim, 2 * half_width + 1
    A = VectorPotential(field_for_flux(flux, Lattice(np.eye(d))))
    keys, blocks = hops.stacked()
    lead = keys[:, -1]  # the first nonzero coordinate, 0 for alpha = 0
    for column in keys.T[-2::-1]:
        lead = np.where(column != 0, column, lead)
    offsets, blocks = -keys[lead >= 0], blocks[lead >= 0]
    h, sites = np.ones(d), np.indices((side,) * d).reshape(d, -1).T
    target = offsets[:, None] + sites
    hop = np.flatnonzero(((target >= 0) & (target < side)).all(axis=2))
    offset, rows = np.divmod(hop, len(sites))
    cols = np.ravel_multi_index(tuple(target.reshape(-1, d)[hop].T),
                                (side,) * d)
    x = origin + h * sites[rows]
    phases = (line_phase(A, x, x + (h * offsets)[offset]) if d == 2
              else np.ones(rows.size, dtype=complex))
    entries = phases[:, None, None] * blocks[offset]
    back = np.flatnonzero(offsets.any(axis=1)[offset])
    entries = np.concatenate(
        [entries, np.conj(entries[back].transpose(0, 2, 1))])
    return bloch_operator(np.concatenate([rows, cols[back]]),
                          np.concatenate([cols, rows[back]]),
                          np.zeros((len(entries), d), dtype=int), entries,
                          len(sites)).dense(np.zeros(d))[0]


@pytest.mark.parametrize("name", ["nn", "fft", "random"])
def test_box_is_the_dirichlet_box_bit_for_bit(name, nn_hoppings,
                                              separable_bands):
    # the shift-0 hops of the periodic box are the hops that stay in it,
    # with the same phases in the same order; the box centred on the origin
    # differs by a diagonal gauge factor, so it has the same spectrum
    hops = {"nn": nn_hoppings, "random": _hermitian_hoppings(seed=5),
            "fft": fourier_hoppings(separable_bands.bands[:, 0],
                                    separable_bands.grid, radius=3)}[name]
    radius = max(max(abs(a) for a in alpha) for alpha in hops.hoppings)
    for flux in ("0", "1/3", "1/4", "2/5"):
        for half_width in (radius, radius + 2):
            M = box_matrix(hops, Fraction(flux), half_width)
            expected = _dirichlet_box_reference(hops, Fraction(flux),
                                                half_width, 0)
            assert M.dtype == expected.dtype
            assert M.tobytes() == expected.tobytes()
            centred = _dirichlet_box_reference(hops, Fraction(flux),
                                               half_width, -half_width)
            assert np.max(np.abs(np.linalg.eigvalsh(centred)
                                 - np.linalg.eigvalsh(M))) <= 1e-12


def test_d1_box_is_the_dirichlet_box_bit_for_bit(mathieu_bands):
    hops = fourier_hoppings(mathieu_bands.bands[:, 0], mathieu_bands.grid,
                            radius=8)
    for half_width in (8, 11):
        M = box_matrix(hops, Fraction(0), half_width)
        expected = _dirichlet_box_reference(hops, Fraction(0), half_width,
                                            0)
        assert M.dtype == expected.dtype
        assert M.tobytes() == expected.tobytes()


@pytest.mark.parametrize("hoppings", [
    {(1, 0): -1.0, (-1, 0): -2.0, (0, 1): -1.0, (0, -1): -1.0},
    {(1, 0): -1.0, (0, 1): -1.0, (0, -1): -1.0},  # (-1, 0) missing
    {(0, 0): 1j},
])
def test_non_hermitian_box_raises(hoppings):
    # the set is refused where it is built, before any operator
    with pytest.raises(InconsistentSymbolError):
        HoppingSet(hoppings={key: np.array([[value]], dtype=complex)
                             for key, value in hoppings.items()},
                   asymmetry=0.0)


@pytest.mark.parametrize("flux", [Fraction(0), Fraction(1, 3)])
def test_hermiticity_tolerance_is_relative_to_the_set_norm(flux):
    # a hop (2, 0) without its partner (-2, 0) counts once in
    # sum ||q_hat_-alpha - q_hat_alpha^*||_F, against 1e-10 times
    # sum ||q_hat_alpha||_F = 4 + eps
    def hoppings(eps):
        return HoppingSet(hoppings={
            key: np.array([[value]], dtype=complex) for key, value in {
                (1, 0): -1.0, (-1, 0): -1.0, (0, 1): -1.0, (0, -1): -1.0,
                (2, 0): eps}.items()}, asymmetry=0.0)

    with pytest.raises(InconsistentSymbolError):
        hoppings(1.01e-10 * 4)
    # the tolerated hop is built with its adjoint: the box stays Hermitian
    M = box_matrix(hoppings(0.99e-10 * 4), flux, 3)
    assert np.array_equal(M, np.conj(M.T))
    # 35 hops (2, 0) in the 7 x 7 box, and their 35 reverses
    tiny = np.isclose(np.abs(M), 0.99e-10 * 4, rtol=1e-12, atol=0)
    assert np.count_nonzero(tiny) == 70


def test_empty_hopping_set_raises():
    with pytest.raises(InputError, match="at least one hop"):
        HoppingSet(hoppings={}, asymmetry=0.0)


def test_hermitian_box_is_accepted():
    hops = _hermitian_hoppings(seed=3)
    for flux in (Fraction(0), Fraction(2, 5)):
        M = box_matrix(hops, flux, 3)
        assert np.max(np.abs(M - np.conj(M.T))) < 1e-12


def test_zero_flux_bloch_matrix_is_symbol(nn_hoppings):
    k = np.array([0.7, -1.2])
    val = _bloch_operator(nn_hoppings, Fraction(0)).dense(k)[0][0, 0]
    assert abs(val - (-2 * np.cos(0.7) - 2 * np.cos(1.2))) < 1e-12


def test_hofstadter_half_flux_endpoints(nn_hoppings):
    cloud = bloch_eigenvalue_cloud(nn_hoppings, Fraction(1, 2), k_resolution=16)
    assert abs(cloud.min() + 2.0 * np.sqrt(2.0)) < 1e-10
    assert abs(cloud.max() - 2.0 * np.sqrt(2.0)) < 1e-10


def test_subband_counts(nn_hoppings):
    assert subband_groups(nn_hoppings, Fraction(1, 3)) == 3
    assert subband_groups(nn_hoppings, Fraction(1, 4)) == 4


def test_box_and_bloch_spectra_agree_at_zero_flux(nn_hoppings):
    win = (-4.5, 4.5)
    s_box = SpectrumSet(
        points=np.linalg.eigvalsh(box_matrix(nn_hoppings, Fraction(0), 14)),
        window=win, merge_tol=0.25)
    s_blo = SpectrumSet(
        points=bloch_eigenvalue_cloud(nn_hoppings, Fraction(0), 48),
        window=win, merge_tol=0.25)
    d, flagged = hausdorff_distance(s_box, s_blo)
    assert not flagged and d < 0.3


@settings(max_examples=30, deadline=None)
@given(flux=FLUXES, shift=st.tuples(*[st.floats(-np.pi, np.pi)] * 2))
def test_constant_gauge_shift_preserves_box_spectrum(flux, shift, nn_hoppings,
                                                     lat2):
    shifted = gauge_shifted_hoppings(nn_hoppings, shift, lat2)
    va = np.sort(np.linalg.eigvalsh(box_matrix(nn_hoppings, flux, 6)))
    vb = np.sort(np.linalg.eigvalsh(box_matrix(shifted, flux, 6)))
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
        _bloch_operator(separable_band0_hoppings, flux).dense(kpts))
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
    return HoppingSet(hoppings=hops, asymmetry=0.0)


@pytest.mark.parametrize("flux, r", [
    ("1/4", 6), ("1/8", 8), ("3/8", 12),
    ("1/3", 4),  # gcd(r, q) = 1: nothing folds
    ("0", 5),
])
def test_cloud_solves_one_fiber_per_class(flux, r, monkeypatch,
                                          representative_rows):
    # fibers 2 pi/q apart in k2 are unitarily equivalent: the cloud solves
    # r * r / gcd(r, q) of them, one row each, and every fiber of the full
    # grid equals the row of its class
    flux = Fraction(flux)
    hops = _hermitian_hoppings(seed=7)
    axis = 2.0 * np.pi * np.arange(r) / r
    full = np.linalg.eigvalsh(
        _bloch_operator(hops, flux).dense(tensor_grid([axis, axis])))
    solved = []
    dense = BlochOperator.dense

    def counted(op, kpts):
        solved.append(len(kpts))
        return dense(op, kpts)

    monkeypatch.setattr(BlochOperator, "dense", counted)
    cloud = bloch_eigenvalue_cloud(hops, flux, k_resolution=r)
    assert solved == [r * r // gcd(r, flux.denominator)]
    assert cloud.shape == (solved[0], full.shape[1])
    rows = representative_rows(2, flux.denominator, r)
    assert np.max(np.abs(cloud[rows] - full)) < 1e-12


def test_cloud_memory_is_that_of_its_fibers():
    # at flux 0 the 64^2 fibers of radius-8 hoppings take 64 KB; a table of
    # their phases, momenta x 289 shifts, would take 19 MB
    hops = _hermitian_hoppings(seed=1, n=1, radius=8)
    tracemalloc.start()
    try:
        bloch_eigenvalue_cloud(hops, Fraction(0), k_resolution=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**22


def _reference_fiber(hops: HoppingSet, flux: Fraction, k) -> np.ndarray:
    """The fiber formula of the _bloch_operator docstring, entry by entry."""
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
def test_batched_cloud_matches_per_k_fiber_formula(flux, seed, k,
                                                   representative_rows):
    # every grid point's reference fiber has the eigenvalues of the row of
    # its class
    hops = _hermitian_hoppings(seed)
    k_res = 3
    axis = 2.0 * np.pi * np.arange(k_res) / k_res
    ref = np.stack([
        np.linalg.eigvalsh(_reference_fiber(hops, flux, (k1, k2)))
        for k1 in axis for k2 in axis
    ])
    cloud = bloch_eigenvalue_cloud(hops, flux, k_resolution=k_res)
    rows = representative_rows(2, flux.denominator, k_res)
    assert cloud.shape == (rows.max() + 1, ref.shape[1])
    assert np.max(np.abs(cloud[rows] - ref)) < 1e-12
    # entrywise at an off-grid k: the cloud of a grid symmetric under
    # k -> -k cannot see the sign of k
    fiber = _bloch_operator(hops, flux).dense([k])[0]
    assert np.max(np.abs(fiber - _reference_fiber(hops, flux, k))) < 1e-12


@settings(max_examples=30, deadline=None)
@given(flux=FLUXES, seed=st.integers(0, 2**16))
def test_operators_are_hermitian_by_construction(flux, seed, separable,
                                                 coefficients, gauged_stencil):
    # every box entry is an exact adjoint pair, and so is every coefficient
    # pair C_-s = C_s^H of the magnetic-Bloch operators of the Peierls
    # fibers and of an FD stencil
    hops = _hermitian_hoppings(seed)
    M = box_matrix(hops, flux, 3)
    assert np.array_equal(M, np.conj(M.T))
    for op in (effective._bloch_operator(hops, flux),
               gauged_stencil(DirectDiscretization(separable, flux, 16),
                              "harmonic")):
        terms = coefficients(op)
        assert len(terms) == len(op.shifts) > 1
        for shift, C in terms.items():
            assert (terms[tuple(-np.asarray(shift))] != C.conj().T).nnz == 0


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("dim", [1, 2])
def test_lattice_hops_take_the_lexicographic_half(dim, seed, monkeypatch):
    # of a random Hermitian set with alpha = 0 and keys (0, j), exactly the
    # hops alpha >= 0 in lexicographic order reach hermitian_hops, each with
    # its own block
    rng = np.random.default_rng(seed)
    keys = [(0,) * dim, *map(tuple, rng.integers(-3, 4, (8, dim)).tolist())]
    if dim == 2:
        keys += [(0, j) for j in rng.integers(-3, 4, 3).tolist()]
    hops = {}
    for alpha in keys:
        hops[alpha] = hops[tuple(-a for a in alpha)] = rng.normal(size=(1, 1))
    passed = {}

    def record(A, shape, h, offsets, blocks):
        passed.update(zip(map(tuple, (-offsets).tolist()), blocks))

    monkeypatch.setattr(effective, "hermitian_hops", record)
    effective._lattice_hops(HoppingSet(hoppings=hops, asymmetry=0.0),
                            Fraction(0), (3,) * dim)
    assert passed.keys() == {a for a in hops if a >= (0,) * dim}
    for alpha, blk in passed.items():
        assert np.array_equal(blk, hops[alpha])


def test_non_hermitian_hoppings_raise():
    one = np.array([[1.0 + 0j]])
    with pytest.raises(InconsistentSymbolError):
        HoppingSet(hoppings={
            (1, 0): -one, (-1, 0): -2.0 * one, (0, 1): -one, (0, -1): -one,
        }, asymmetry=0.0)
    # an N x N partner is the adjoint block, not the transpose
    blk = np.array([[1.0, 2j], [0.5, -1j]])
    HoppingSet(hoppings={(1, 0): blk, (-1, 0): np.conj(blk.T)}, asymmetry=0.0)
    with pytest.raises(InconsistentSymbolError):
        HoppingSet(hoppings={(1, 0): blk, (-1, 0): blk.T}, asymmetry=0.0)
