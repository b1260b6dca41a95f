from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from peierls.direct import (
    DirectDiscretization,
    GridTooCoarseError,
    GridTooLargeError,
    NonRectangularLatticeError,
    WindowCoverageError,
    _window_eigs,
    assemble_direct,
    direct_spectrum,
    distinct_fibers,
)
from peierls.effective import field_for_flux
from peierls.lattice import Lattice, momentum_grid
from peierls.magnetic import CHI_CATALOG, MagneticField
from peierls.spectra import SpectrumSet
from peierls.symbols import (
    Nonrelativistic,
    PeriodicSymbol,
    Relativistic,
    cosine_potential,
    separable_cosine_2d,
    zero_potential,
)


def test_assemble_direct_validation(mathieu, separable):
    with pytest.raises(ValueError, match="unknown mode"):
        assemble_direct(mathieu, None, "bogus")
    with pytest.raises(GridTooCoarseError):
        assemble_direct(mathieu, None, "magnetic_bloch", points_per_cell=8)
    skew = Lattice(basis=np.array([[2.0 * np.pi, 1.0], [0.0, 2.0 * np.pi]]))
    skew_sym = PeriodicSymbol(Nonrelativistic(), zero_potential(skew))
    with pytest.raises(NonRectangularLatticeError):
        assemble_direct(skew_sym, None, "magnetic_bloch")


def test_fd_matrix_hermitian_and_gauge_covariant(separable):
    field = MagneticField(2.0 * np.pi / (4.0 * np.pi**2))  # flux 1 per cell
    disc = assemble_direct(separable, field, "magnetic_bloch",
                           flux=Fraction(1), points_per_cell=16)
    k = np.array([0.3, -0.7])
    M = disc.bloch_matrix(k)
    assert sp.issparse(M)
    dev = abs(M - M.getH()).max()
    assert dev < 1e-12
    # periodic gauge function: spectra must be unchanged
    disc_chi = assemble_direct(separable, field, "magnetic_bloch",
                               flux=Fraction(1), points_per_cell=16,
                               chi="harmonic")
    v0 = np.linalg.eigvalsh(M.toarray())[:6]
    v1 = np.linalg.eigvalsh(disc_chi.bloch_matrix(k).toarray())[:6]
    assert np.max(np.abs(v0 - v1)) < 1e-9
    # A -> A + grad(chi) conjugates the matrix by D = diag(exp(i chi(x))):
    # on the magnetic cell (chi periodic over it) and in a box
    cell_axis = 2.0 * np.pi / 16 * np.arange(16)
    box_axis = -3.0 + 6.0 / 16 * np.arange(16)
    cases = [
        ("harmonic", field, dict(mode="magnetic_bloch", flux=Fraction(1),
                                 points_per_cell=16), cell_axis),
        ("quadratic", MagneticField(0.3), dict(mode="box", box_size=6.0,
                                               box_points=16), box_axis),
    ]
    for chi, fld, kw, axis in cases:
        mats = []
        for gauge in (None, chi):
            d = assemble_direct(separable, fld, chi=gauge, **kw)
            mats.append((d.bloch_matrix(k) if d.mode == "magnetic_bloch"
                         else d.box_matrix()).toarray())
        base, gauged = mats
        x = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1)
        D = np.exp(1j * CHI_CATALOG[chi](x.reshape(-1, 2)))
        expected = D[:, None] * base * np.conj(D)[None, :]
        assert np.max(np.abs(gauged - expected)) < 1e-12
        assert np.max(np.abs(gauged - base)) > 0.1


@settings(max_examples=8, deadline=None)
@given(
    p=st.integers(1, 4),
    q=st.integers(1, 4),
    k1=st.floats(-np.pi, np.pi),
    k2=st.floats(-np.pi, np.pi),
)
def test_fd_fiber_hermitian_and_periodic_in_k2(separable, p, q, k1, k2):
    # the magnetic translation by one unit cell along axis 1 commutes with
    # the operator and shifts k2 by 2 pi p/q, so the fiber spectrum has
    # period 2 pi/q in k2; the wrap phase of the stencil must respect it
    flux = Fraction(p, q)
    disc = assemble_direct(separable, field_for_flux(flux, separable.lattice),
                           "magnetic_bloch", flux=flux, points_per_cell=16)
    lowest = []
    for k in ([k1, k2], [k1, k2 + 2.0 * np.pi / flux.denominator]):
        M = disc.bloch_matrix(np.array(k))
        assert abs(M - M.conj().T).max() == 0.0
        lowest.append(scipy.linalg.eigh(M.toarray(), eigvals_only=True,
                                        subset_by_index=[0, 11]))
    assert np.max(np.abs(lowest[0] - lowest[1])) < 1e-10


def test_fd_converges_second_order_d1(mathieu):
    # ground eigenvalue error at k = 0 shrinks ~4x per grid doubling
    ref = -0.37848922126213247  # dense plane-wave value
    errs = []
    for n in (32, 64):
        disc = assemble_direct(mathieu, None, "magnetic_bloch",
                               points_per_cell=n)
        vals = np.linalg.eigvalsh(disc.bloch_matrix([0.0]).toarray())
        errs.append(abs(vals[0] - ref))
    assert errs[1] < errs[0] / 3.0


def test_magnetic_spectrum_stable_under_k_refinement(separable):
    flux = Fraction(1, 2)
    from peierls.effective import field_for_flux
    from peierls.spectra import hausdorff_distance

    field = field_for_flux(flux, separable.lattice)
    disc = assemble_direct(separable, field, "magnetic_bloch", flux=flux,
                           points_per_cell=16)
    win = (-1.0, 0.5)
    s1 = direct_spectrum(disc, win, merge_tol=0.05, k_resolution=8, n_bands=4)
    s2 = direct_spectrum(disc, win, merge_tol=0.05, k_resolution=16, n_bands=4)
    d, flagged = hausdorff_distance(s1, s2)
    assert not flagged and d < 0.01


def test_box_mode_spectrum(mathieu):
    disc = assemble_direct(mathieu, None, "box", box_size=8.0 * np.pi,
                           box_points=128)
    win = (-0.5, 0.0)
    s = direct_spectrum(disc, win, merge_tol=2e-2)
    # Dirichlet eigenvalues fill the first band up to boundary effects
    assert s.points.size > 3
    assert s.points.min() > -0.385


@pytest.mark.parametrize("dim, b12", [(1, 0.0), (2, 0.3)])
def test_relativistic_box_squares_to_the_nonrelativistic_box(dim, b12):
    lat = Lattice(basis=2.0 * np.pi * np.eye(dim))
    pot = (cosine_potential if dim == 1 else separable_cosine_2d)(lat, 0.3)
    field = MagneticField(b12) if b12 else None

    def box(kind, potential):
        disc = assemble_direct(PeriodicSymbol(kind, potential), field, "box",
                               box_size=6.0, box_points=16)
        return disc.box_matrix().toarray()

    kinetic = box(Nonrelativistic(), zero_potential(lat))
    v = box(Nonrelativistic(), pot) - kinetic
    root = box(Relativistic(), pot) - v  # potential diagonal removed
    eye = np.eye(kinetic.shape[0])
    assert np.max(np.abs(root @ root - (kinetic + eye))) < 1e-9


def test_zero_field_bloch_mode_uses_band_solver(mathieu):
    disc = assemble_direct(mathieu, None, "zero_field_bloch")
    s = direct_spectrum(disc, (-0.5, 0.0), merge_tol=1e-2, k_resolution=16,
                        n_bands=2, shell_radius=8.0)
    assert abs(s.points.min() + 0.37848922126213247) < 1e-8


def test_relativistic_fd_runs(lat1):
    sym = PeriodicSymbol(Relativistic(), cosine_potential(lat1, 0.3))
    disc = assemble_direct(sym, None, "magnetic_bloch", points_per_cell=16)
    vals = np.linalg.eigvalsh(disc.bloch_matrix([0.0]).toarray())
    assert vals[0] > 0.0  # sqrt(1 + |eta|^2) + V >= 1 - 0.6


def test_window_eigs_covers_window_above_initial_batch(separable):
    from peierls.effective import field_for_flux

    flux = Fraction(1, 4)
    disc = assemble_direct(separable, field_for_flux(flux, separable.lattice),
                           "magnetic_bloch", flux=flux, points_per_cell=16)
    M = disc.bloch_matrix(np.array([0.3, -0.7]))
    assert M.shape[0] > 600  # the sparse path
    dense = np.linalg.eigvalsh(M.toarray())
    n_eigs = max(8, flux.denominator * 4)
    # window edges mid-gap, above the lowest n_eigs eigenvalues and past
    # the 2 * n_eigs that a grow-once batch from the bottom would reach
    window = (0.5 * (dense[19] + dense[20]), 0.5 * (dense[39] + dense[40]))
    got = _window_eigs(M, window, n_eigs=n_eigs)
    expected = dense[(dense >= window[0]) & (dense <= window[1])]
    assert expected.size == 20
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) < 1e-9
    # a window holding more than an eighth of the spectrum is not certified
    with pytest.raises(WindowCoverageError):
        _window_eigs(M, (-1.0, 20.0), n_eigs=n_eigs)


def test_window_eigs_moves_shift_off_an_eigenvalue():
    # the window centre 11 is an eigenvalue: M - 11 has no LU factors
    M = sp.diags(np.arange(700.0) + 0j).tocsr()
    got = _window_eigs(M, (9.5, 12.5), n_eigs=8)
    assert np.allclose(got, [10.0, 11.0, 12.0], atol=1e-10)


@pytest.mark.parametrize("flux, r, kind, chi, window", [
    ("1/2", 2, Nonrelativistic, None, (-0.83, -0.29)),
    ("2/3", 3, Nonrelativistic, None, (-0.83, -0.29)),
    ("1/4", 6, Nonrelativistic, None, (-0.83, -0.29)),
    ("3/8", 4, Nonrelativistic, None, (-0.83, -0.29)),
    ("2/3", 2, Nonrelativistic, None, (-0.83, -0.29)),  # gcd(r, q) = 1
    ("1/4", 2, Nonrelativistic, "harmonic", (-0.83, -0.29)),
    ("1/2", 2, Relativistic, None, (-0.3, 0.0)),
])
def test_fold_matches_the_full_grid(lat2, monkeypatch, flux, r, kind, chi,
                                    window):
    # fibers 2 pi/q apart in k2 have equal spectra, so one fiber per class
    # j2 mod r / gcd(r, q) stands for the whole class, for every k1
    flux = Fraction(flux)
    sym = PeriodicSymbol(kind(), separable_cosine_2d(lat2, 0.5))
    disc = assemble_direct(sym, field_for_flux(flux, lat2), "magnetic_bloch",
                           flux=flux, points_per_cell=16, chi=chi)
    n_eigs = max(8, 2 * flux.denominator)
    full = SpectrumSet(
        points=np.concatenate([
            _window_eigs(disc.bloch_matrix(k), window, n_eigs=n_eigs)
            for k in momentum_grid(2, r)]),
        window=window, merge_tol=1e-3)

    calls = []
    matrix = DirectDiscretization.bloch_matrix

    def counted(self, k):
        calls.append(k)
        return matrix(self, k)

    monkeypatch.setattr(DirectDiscretization, "bloch_matrix", counted)
    folded = direct_spectrum(disc, window, merge_tol=1e-3, k_resolution=r)
    fibers = r * (r // np.gcd(r, flux.denominator))
    assert len(calls) == fibers == distinct_fibers(disc, r)
    assert folded.points.shape == full.points.shape
    assert folded.points.size == r * r * flux.denominator  # q subbands
    assert np.max(np.abs(folded.points - full.points)) < 1e-12
    assert folded.merged_intervals.shape == full.merged_intervals.shape
    assert np.max(np.abs(folded.merged_intervals
                         - full.merged_intervals)) < 1e-12


def test_no_fold_in_d1_or_at_integer_flux(mathieu, separable):
    d1 = assemble_direct(mathieu, None, "magnetic_bloch")
    field = field_for_flux(Fraction(1), separable.lattice)
    d2 = assemble_direct(separable, field, "magnetic_bloch", flux=Fraction(1))
    assert distinct_fibers(d1, 6) == 6
    assert distinct_fibers(d2, 6) == 36


def test_relativistic_fd_size_is_bounded(separable):
    sym = PeriodicSymbol(Relativistic(), separable.potential)
    with pytest.raises(GridTooLargeError, match="16384"):
        assemble_direct(sym, MagneticField(0.3), "box", box_size=6.0,
                        box_points=128)
    with pytest.raises(GridTooLargeError, match="4096"):
        assemble_direct(sym, field_for_flux(Fraction(1, 16), sym.lattice),
                        "magnetic_bloch", flux=Fraction(1, 16))
    # the nonrelativistic stencil stays sparse at any size
    assemble_direct(separable, MagneticField(0.3), "box", box_size=6.0,
                    box_points=128)
