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
    WindowTooWideError,
    _edge_factors,
    _fd_stencil,
    _window_eigs,
    assemble_direct,
    direct_spectrum,
    distinct_fibers,
)
from peierls.effective import HoppingSet, _bloch_fibers, field_for_flux
from peierls.lattice import Lattice, momentum_grid, tensor_grid
from peierls.magnetic import CHI_CATALOG, MagneticField, VectorPotential
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


@settings(max_examples=10, deadline=None)
@given(k1=st.floats(-np.pi, np.pi), k2=st.floats(-np.pi, np.pi))
def test_fd_fiber_window_is_even_in_k(separable, k1, k2):
    # the separable potential is even in each coordinate, and the
    # reflections k -> -k and k1 -> -k1 survive the field
    flux = Fraction(1, 4)
    disc = assemble_direct(separable, field_for_flux(flux, separable.lattice),
                           "magnetic_bloch", flux=flux, points_per_cell=16)
    window = (-0.83, -0.29)  # band 0 with margins in its gaps
    base, negated, mirrored = (
        _window_eigs(disc.bloch_matrix(np.array(k)), window)
        for k in ([k1, k2], [-k1, -k2], [-k1, k2]))
    assert base.size == flux.denominator  # q subbands
    assert negated.shape == mirrored.shape == base.shape
    assert np.max(np.abs(negated - base)) < 1e-10
    assert np.max(np.abs(mirrored - base)) < 1e-10


@settings(max_examples=10, deadline=None)
@given(k=st.tuples(*[st.floats(-np.pi, np.pi)] * 2))
@pytest.mark.parametrize("lengths", [[2.0 * np.pi], [2.0 * np.pi, 3.0]],
                         ids=["d1", "d2"])
def test_free_fd_fiber_matches_closed_form(lengths, k):
    # the discrete Laplacian on N points per axis with the Bloch wrap
    # u_{j + N} = exp(i k) u_j has the eigenvalues (2 - 2 cos theta) / h^2,
    # N theta = k + 2 pi j, summed over the axes
    free = PeriodicSymbol(Nonrelativistic(),
                          zero_potential(Lattice(np.diag(lengths))))
    disc = assemble_direct(free, None, "magnetic_bloch", points_per_cell=16)
    k = np.asarray(k[:len(lengths)])
    vals = np.linalg.eigvalsh(disc.bloch_matrix(k).toarray())
    h = np.asarray(lengths) / 16
    theta = (k + 2.0 * np.pi * tensor_grid([np.arange(16)] * len(lengths))) / 16
    expected = np.sort(np.sum((2.0 - 2.0 * np.cos(theta)) / h**2, axis=1))
    assert np.max(np.abs(vals - expected)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(flux=st.integers(1, 16).flatmap(
           lambda q: st.integers(-q, q).map(lambda p: Fraction(p, q))),
       k=st.tuples(*[st.floats(-np.pi, np.pi)] * 2))
def test_fd_stencil_on_the_unit_grid_is_the_harper_fiber(flux, k, lat2):
    # on the unit grid of the magnetic cell the FD Laplacian is the
    # Peierls operator of the nearest-neighbour hoppings: the stencil and
    # the effective fibers share the line phases, the wrap and the sign of k
    one = np.array([[1.0 + 0j]])
    harper = HoppingSet(n=1, dim=2, source_tag="harper", hoppings={
        (0, 0): 4.0 * one, (1, 0): -one, (-1, 0): -one, (0, 1): -one,
        (0, -1): -one})
    A = VectorPotential(MagneticField(2.0 * np.pi * float(flux)))
    free = PeriodicSymbol(Nonrelativistic(), zero_potential(lat2))
    M = _fd_stencil(free, A, np.ones(2), (flux.denominator, 1), k=k)
    H = _bloch_fibers(harper, flux, [k])[0]
    assert np.max(np.abs(M.toarray() - H)) < 1e-13


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
    # window edges mid-gap, around the 21st to the 40th eigenvalue
    window = (0.5 * (dense[19] + dense[20]), 0.5 * (dense[39] + dense[40]))
    got = _window_eigs(M, window)
    expected = dense[(dense >= window[0]) & (dense <= window[1])]
    assert expected.size == 20
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) < 1e-9
    # a window holding more than an eighth of the spectrum is refused
    with pytest.raises(WindowTooWideError, match="window"):
        _window_eigs(M, (-1.0, 20.0))


def test_window_eigs_moves_shift_off_an_eigenvalue():
    # both edges of the second window are eigenvalues: M - 10 and M - 12
    # have no LU factors, and the edges move outward
    M = sp.diags(np.arange(700.0) + 0j).tocsr()
    for window in ((9.5, 12.5), (10.0, 12.0)):
        got = _window_eigs(M, window)
        assert np.allclose(got, [10.0, 11.0, 12.0], atol=1e-10)


def test_window_eigs_refuses_off_diagonal_pivots():
    # M - 0 has a zero diagonal, so SuperLU must pivot off it, and its
    # factors no longer count the eigenvalues below the shift
    M = sp.kron(sp.identity(150), np.array([[0.0, 1.0], [1.0, 0.0]]),
                format="csr").astype(complex)
    with pytest.raises(WindowCoverageError, match="LDL"):
        _window_eigs(M, (0.0, 2.0))


def _check_window(M, dense, window):
    """_window_eigs and the edge inertias against a dense solve.

    An eigenvalue within 1e-9 of an edge may fall on either side of it in
    floating point; every other one must be found, and counted, exactly.
    """
    lo, hi = window
    got = _window_eigs(M, window)
    assert np.all((got >= lo) & (got <= hi))
    inner = dense[(dense > lo + 1e-9) & (dense < hi - 1e-9)]
    outer = dense[(dense >= lo - 1e-9) & (dense <= hi + 1e-9)]
    assert inner.size <= got.size <= outer.size
    # each found value matches a dense eigenvalue, and none is missed
    assert np.all(np.min(np.abs(got[:, None] - outer[None, :]), axis=1,
                         initial=np.inf) < 1e-9)
    assert np.all(np.min(np.abs(inner[:, None] - got[None, :]), axis=1,
                         initial=np.inf) < 1e-9)
    for edge in (lo, hi):
        count = _edge_factors(M, edge, 1e-9)[2]
        assert (np.count_nonzero(dense < edge - 1e-9) <= count
                <= np.count_nonzero(dense < edge + 1e-9))


@settings(max_examples=8, deadline=None)
@given(
    p=st.integers(1, 8),
    q=st.integers(1, 8),
    k1=st.floats(-np.pi, np.pi),
    k2=st.floats(-np.pi, np.pi),
    data=st.data(),
)
def test_window_eigs_matches_dense_at_random_flux(separable, p, q, k1, k2,
                                                  data):
    flux = Fraction(p, q)
    disc = assemble_direct(separable, field_for_flux(flux, separable.lattice),
                           "magnetic_bloch", flux=flux, points_per_cell=16)
    M = disc.bloch_matrix(np.array([k1, k2]))
    assert M.shape[0] > 200  # the sparse path
    dense = np.linalg.eigvalsh(M.toarray())
    m = min(M.shape[0] // 8, 24)  # up to 24 of the size // 8 admitted
    i = data.draw(st.integers(0, m - 2), label="i")
    j = data.draw(st.integers(i + 1, m - 1), label="j")
    # a random window below the middle of the gap above dense[m - 1]
    bottom, top = dense[0] - 0.2, 0.5 * (dense[m - 1] + dense[m])
    lo = bottom + data.draw(st.floats(0.0, 0.95), label="u") * (top - bottom)
    hi = lo + data.draw(st.floats(0.01, 1.0), label="v") * (top - lo)
    gap = dense[i + 1] - dense[i]
    for window in [
        (lo, hi),
        (dense[i] + 0.25 * gap, dense[i] + 0.75 * gap),  # empty: in a gap
        (dense[i], dense[j]),  # edges on eigenvalues
        (dense[i] + 1e-7, dense[j] + 1e-7),  # lower edge just above one
    ]:
        _check_window(M, dense, window)


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
    full = SpectrumSet(
        points=np.concatenate([
            _window_eigs(disc.bloch_matrix(k), window)
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
