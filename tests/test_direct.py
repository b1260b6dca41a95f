from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from peierls import direct
from peierls.direct import (
    KRYLOV_TOL,
    DirectDiscretization,
    WindowCoverageError,
    _edge_factors,
    _fd_stencil,
    _kato_temple,
    certified_below,
    direct_spectrum,
    window_eigs,
)
from peierls.effective import (HoppingSet, _bloch_operator,
                               bloch_eigenvalue_cloud, box_matrix)
from peierls.lattice import (InputError, Lattice, magnetic_momenta,
                             tensor_grid)
from peierls.magnetic import (CHI_CATALOG, MagneticField, VectorPotential,
                              field_for_flux, line_phase, transversal_gauge)
from peierls.spectra import SpectrumSet
from peierls.symbols import (
    Nonrelativistic,
    PeriodicSymbol,
    Relativistic,
    separable_cosine_2d,
    zero_potential,
)


def test_discretization_validation(mathieu, separable):
    with pytest.raises(InputError, match="exact Fraction"):
        DirectDiscretization(mathieu, 0.0, 16)
    with pytest.raises(InputError, match="need at least 16"):
        DirectDiscretization(mathieu, Fraction(0), points_per_cell=8)
    skew = Lattice(basis=np.array([[2.0 * np.pi, 1.0], [0.0, 2.0 * np.pi]]))
    skew_sym = PeriodicSymbol(Nonrelativistic(), zero_potential(skew))
    with pytest.raises(InputError, match="lattice.basis"):
        DirectDiscretization(skew_sym, Fraction(0), 16)
    # the stencil has no relativistic root, at any flux
    relativistic = PeriodicSymbol(Relativistic(), separable.potential)
    for flux in (Fraction(0), Fraction(1, 4)):
        with pytest.raises(InputError, match="symbol.kind 'relativistic'"):
            DirectDiscretization(relativistic, flux, 16)


def test_fd_matrix_hermitian_and_gauge_covariant(separable, gauged_stencil):
    disc = DirectDiscretization(separable, Fraction(1), points_per_cell=16)
    k = np.array([0.3, -0.7])
    M = disc.bloch_matrix(k)
    assert sp.issparse(M)
    dev = abs(M - M.getH()).max()
    assert dev < 1e-12
    # periodic gauge function: spectra must be unchanged
    base = M.toarray()
    gauged = gauged_stencil(disc, "harmonic").matrix(k).toarray()
    v0 = np.linalg.eigvalsh(base)[:6]
    v1 = np.linalg.eigvalsh(gauged)[:6]
    assert np.max(np.abs(v0 - v1)) < 1e-9
    # A -> A + grad(chi) conjugates the matrix by D = diag(exp(i chi(x)))
    # on the magnetic cell (chi periodic over it)
    axis = 2.0 * np.pi / 16 * np.arange(16)
    x = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1)
    D = np.exp(1j * CHI_CATALOG["harmonic"](x.reshape(-1, 2)))
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
    disc = DirectDiscretization(separable, flux, points_per_cell=16)
    lowest = []
    for k in ([k1, k2], [k1, k2 + 2.0 * np.pi / flux.denominator]):
        M = disc.bloch_matrix(np.array(k))
        assert abs(M - M.conj().T).max() == 0.0
        lowest.append(scipy.linalg.eigh(M.toarray(), eigvals_only=True,
                                        subset_by_index=[0, 11]))
    assert np.max(np.abs(lowest[0] - lowest[1])) < 1e-10


@settings(max_examples=30, deadline=None)
@given(flux=st.integers(1, 16).flatmap(
           lambda q: st.integers(-q, q).map(lambda p: Fraction(p, q))),
       k=st.tuples(*[st.floats(-np.pi, np.pi)] * 2))
def test_fd_fiber_is_covariant_under_magnetic_translations(separable, flux,
                                                           k):
    # (T f)(x) = exp(i (b/2) L1 x2) f(x - L1 e1) commutes with the operator
    # and maps magnetic-Bloch functions at k to k + (0, 2 pi p/q).  On the
    # cell it is U = D P: P shifts by one unit cell (points_per_cell sites)
    # along axis 1, cyclically, and D is the phase of T times the
    # magnetic-Bloch wrap of the sites that P brings around the cell.
    n, q = 16, flux.denominator
    disc = DirectDiscretization(separable, flux, points_per_cell=n)
    L1, L2 = np.diag(separable.lattice.basis)
    b = field_for_flux(flux, separable.lattice).b12
    i1, i2 = np.indices((q * n, n)).reshape(2, -1)
    x2 = L2 / n * i2
    wrap = np.where(i1 < n, -k[0] - 0.5 * b * q * L1 * x2, 0.0)
    shift = np.ravel_multi_index(((i1 - n) % (q * n), i2), (q * n, n))
    U = sp.diags(np.exp(1j * (0.5 * b * L1 * x2 + wrap))) @ sp.csr_matrix(
        (np.ones(shift.size), (np.arange(shift.size), shift)))
    M = disc.bloch_matrix(np.array(k))
    image = disc.bloch_matrix(np.array([k[0],
                                        k[1] + 2.0 * np.pi * float(flux)]))
    assert abs(U @ M @ U.conj().T - image).max() < 1e-12


@settings(max_examples=10, deadline=None)
@given(k1=st.floats(-np.pi, np.pi), k2=st.floats(-np.pi, np.pi))
def test_fd_fiber_window_is_even_in_k(separable, k1, k2):
    # the separable potential is even in each coordinate, and the
    # reflections k -> -k and k1 -> -k1 survive the field
    flux = Fraction(1, 4)
    disc = DirectDiscretization(separable, flux, points_per_cell=16)
    window = (-0.83, -0.29)  # band 0 with margins in its gaps
    base, negated, mirrored = (
        window_eigs(disc.bloch_matrix(np.array(k)), window, False)[0]
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
    disc = DirectDiscretization(free, Fraction(0), points_per_cell=16)
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
def test_fd_stencil_on_the_unit_grid_is_the_harper_fiber(flux, k, lat2,
                                                         coefficients):
    # on the unit grid of the magnetic cell the FD Laplacian is the
    # Peierls operator of the nearest-neighbour hoppings: the stencil and
    # the effective fibers share the line phases, the wrap and the sign of
    # k, so both magnetic-Bloch operators have the same shifts and blocks
    one = np.array([[1.0 + 0j]])
    harper = HoppingSet(hoppings={
        (0, 0): 4.0 * one, (1, 0): -one, (-1, 0): -one, (0, 1): -one,
        (0, -1): -one}, asymmetry=0.0)
    A = VectorPotential(MagneticField(2.0 * np.pi * float(flux)))
    free = PeriodicSymbol(Nonrelativistic(), zero_potential(lat2))
    stencil = _fd_stencil(free, A, np.ones(2), (flux.denominator, 1))
    peierls = _bloch_operator(harper, flux)
    assert np.array_equal(stencil.shifts, peierls.shifts)
    fd_terms, peierls_terms = coefficients(stencil), coefficients(peierls)
    for shift, C in fd_terms.items():
        assert abs(C - peierls_terms[shift]).max() < 1e-13
    M = stencil.matrix(k)
    H = _bloch_operator(harper, flux).dense([k])[0]
    assert np.max(np.abs(M.toarray() - H)) < 1e-13


def _fiber_built_at(disc, chi, k):
    """disc's FD matrix in the gauge A + grad(chi) with every phase
    computed at k: the line phase of each link [x, x + h_ax e_ax] and, on
    a link that leaves the grid at cell shift n, the wrap
    exp(i (<k, n> + <A(a), y> + (b/2) a1 a2)) of its cell vector a and
    wrapped target y."""
    lattice = disc.symbol.lattice
    n, q = disc.points_per_cell, disc.flux.denominator
    h = np.diag(lattice.basis) / n
    shape = np.array([q * n, n])
    A = VectorPotential(field_for_flux(disc.flux, lattice), chi)
    sites = np.indices(shape).reshape(2, -1).T
    axis = np.repeat([0, 1], len(sites))
    start = np.concatenate([sites, sites])
    cell, end = np.divmod(start + np.eye(2, dtype=int)[axis], shape)
    x, a, y = h * start, h * shape * cell, h * end
    wrap = (cell @ k + np.sum(transversal_gauge(A.field, a) * y, axis=1)
            + 0.5 * A.field.b12 * a[:, 0] * a[:, 1])
    vals = (-line_phase(A, x, x + h * np.eye(2)[axis]) * np.exp(1j * wrap)
            / h[axis] ** 2)
    rows, cols = (np.ravel_multi_index(tuple(p.T), shape)
                  for p in (start, end))
    v = disc.symbol.potential.value(
        tensor_grid([np.arange(m) for m in shape]) * h)
    sites = np.arange(v.size)
    return sp.coo_matrix(
        (np.concatenate([vals, np.conj(vals), np.sum(2.0 / h**2) + v]),
         (np.concatenate([rows, cols, sites]),
          np.concatenate([cols, rows, sites]))), shape=(v.size,) * 2).tocsr()


@settings(max_examples=12, deadline=None)
@given(
    flux=st.integers(1, 8).flatmap(
        lambda q: st.integers(-q, q).map(lambda p: Fraction(p, q))),
    k=st.tuples(*[st.floats(-np.pi, np.pi)] * 2),
    chi=st.sampled_from([None, "harmonic"]),
)
def test_rephased_stencil_matches_the_build_at_each_k(lat2, gauged_stencil,
                                                      flux, k, chi):
    # the stencil is built once at k = 0 and its wrapped links re-phased
    # by exp(i <k, n>); the reference computes every phase at k instead
    sym = PeriodicSymbol(Nonrelativistic(), separable_cosine_2d(lat2, 0.5))
    disc = DirectDiscretization(sym, flux, points_per_cell=16)
    M = gauged_stencil(disc, chi).matrix(np.array(k))
    expected = _fiber_built_at(disc, chi, np.array(k))
    assert np.array_equal(M.indptr, expected.indptr)
    assert np.array_equal(M.indices, expected.indices)
    assert np.abs(M.data - expected.data).max() <= (
        1e-14 * np.abs(expected.data).max())
    assert abs(M - M.conj().T).max() == 0.0


def test_fd_converges_second_order_d1(mathieu):
    # ground eigenvalue error at k = 0 shrinks ~4x per grid doubling
    ref = -0.37848922126213247  # dense plane-wave value
    errs = []
    for n in (32, 64):
        disc = DirectDiscretization(mathieu, Fraction(0), points_per_cell=n)
        vals = np.linalg.eigvalsh(disc.bloch_matrix([0.0]).toarray())
        errs.append(abs(vals[0] - ref))
    assert errs[1] < errs[0] / 3.0


def test_magnetic_spectrum_stable_under_k_refinement(separable):
    from peierls.spectra import hausdorff_distance

    disc = DirectDiscretization(separable, Fraction(1, 2), points_per_cell=16)
    win = (-1.0, 0.5)
    s1 = direct_spectrum(disc, win, merge_tol=0.05, k_resolution=8)
    s2 = direct_spectrum(disc, win, merge_tol=0.05, k_resolution=16)
    d, flagged = hausdorff_distance(s1, s2)
    assert not flagged and d < 0.01


def test_window_eigs_covers_window_above_initial_batch(separable):
    flux = Fraction(1, 4)
    disc = DirectDiscretization(separable, flux, points_per_cell=16)
    M = disc.bloch_matrix(np.array([0.3, -0.7]))
    assert M.shape[0] > 600  # the sparse path
    dense = np.linalg.eigvalsh(M.toarray())
    # window edges mid-gap, around the 21st to the 40th eigenvalue
    window = (0.5 * (dense[19] + dense[20]), 0.5 * (dense[39] + dense[40]))
    got, below = window_eigs(M, window, False)
    expected = dense[(dense >= window[0]) & (dense <= window[1])]
    assert expected.size == 20 and below == 20
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) < 1e-9
    # a window holding more than an eighth of the spectrum is refused
    with pytest.raises(InputError, match="window"):
        window_eigs(M, (-1.0, 20.0), False)


def test_window_eigs_moves_shift_off_an_eigenvalue():
    # both edges of the second window are eigenvalues: M - 10 and M - 12
    # have no LU factors, and the edges move outward
    M = sp.diags(np.arange(700.0) + 0j).tocsr()
    for window in ((9.5, 12.5), (10.0, 12.0)):
        got, below = window_eigs(M, window, False)
        assert np.allclose(got, [10.0, 11.0, 12.0], atol=1e-10)
        assert below == 10


def test_window_eigs_keeps_eigenvalues_on_the_edges():
    # integer edges of a diagonal spectrum are eigenvalues; each is counted
    # in the window, and its Ritz value may come back a roundoff outside it
    for size in (100, 300, 500, 700, 1000):
        M = sp.diags(np.arange(size) + 0j).tocsr()
        for lo in range(1, 30):
            for width in (1, 2, 3, 5):
                got, below = window_eigs(M, (lo, lo + width), False)
                assert got.shape == (width + 1,) and below == lo
                assert np.all((got >= lo) & (got <= lo + width))
                assert np.max(np.abs(got - np.arange(lo, lo + width + 1))
                              ) < 1e-12


def test_window_eigs_refuses_off_diagonal_pivots():
    # M - 0 has a zero diagonal, so SuperLU must pivot off it, and its
    # factors no longer count the eigenvalues below the shift
    M = sp.kron(sp.identity(150), np.array([[0.0, 1.0], [1.0, 0.0]]),
                format="csr").astype(complex)
    with pytest.raises(WindowCoverageError, match="LDL"):
        window_eigs(M, (0.0, 2.0), False)


def _check_window(M, dense, window):
    """window_eigs and the edge inertias against a dense solve.

    An eigenvalue within 1e-9 of an edge may fall on either side of it in
    floating point; every other one must be found, and counted, exactly.
    A lower edge below the spectrum is also solved as certified, from the
    factors of M - hi alone.
    """
    lo, hi = window
    inner = dense[(dense > lo + 1e-9) & (dense < hi - 1e-9)]
    outer = dense[(dense >= lo - 1e-9) & (dense <= hi + 1e-9)]
    certified = [True] if lo < dense[0] else []
    for lower_clear in [False] + certified:
        got, below = window_eigs(M, window, lower_clear=lower_clear)
        assert np.all((got >= lo) & (got <= hi))
        assert (np.count_nonzero(dense < lo - 1e-9) <= below
                <= np.count_nonzero(dense < lo + 1e-9))
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
    disc = DirectDiscretization(separable, flux, points_per_cell=16)
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


def _counted_runs(monkeypatch):
    """The tol of every eigsh run, and the SuperLU solves of each."""
    runs, factor, eigsh = [], direct._shift_factors, direct.spla.eigsh

    class Counted:
        def __init__(self, lu):
            self.lu = lu

        def __getattr__(self, name):
            return getattr(self.lu, name)

        def solve(self, b):
            runs[-1][1] += 1
            return self.lu.solve(b)

    def run(*args, **kwargs):
        runs.append([kwargs["tol"], 0])
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(direct, "_shift_factors",
                        lambda *args: Counted(factor(*args)))
    monkeypatch.setattr(direct.spla, "eigsh", run)
    return runs


def test_certified_window_run_stops_at_krylov_tol(separable, monkeypatch):
    # the flux-1/8 fibers of the separable_compare benchmark, window
    # band 0 +- 0.08 with the lower edge certified: one run at KRYLOV_TOL
    # takes 21 solves, where ARPACK's machine-precision stop takes 33 (one
    # implicit restart)
    q = 4 * 0.5  # Mathieu q of the fixture's amplitude 0.5, per axis
    band = 2 * np.array([scipy.special.mathieu_a(0, q),
                         scipy.special.mathieu_b(1, q)]) / 4
    window = (band[0] - 0.08, band[1] + 0.08)
    assert certified_below(separable, 16, window)
    disc = DirectDiscretization(separable, Fraction(1, 8), points_per_cell=16)
    runs = _counted_runs(monkeypatch)
    for k in magnetic_momenta(2, 8, 2):
        M = disc.bloch_matrix(k)
        assert M.shape[0] == 2048
        got, below = window_eigs(M, window, lower_clear=True)
        assert below == 0 and got.size == 8  # the q subbands
        tol, solves = runs.pop()
        assert tol == KRYLOV_TOL and solves <= 21 and not runs


def test_uncertified_windows_shift_at_the_lower_edge(separable, monkeypatch):
    """A window whose lower edge is not certified is solved from the
    factors of M - lo, a certified one from those of M - hi alone.

    The lower edge is the faster shift on windows that start below a band.
    On the FD fibers of criterion 8 (fluxes 1/4, 1/8 and 1/16, band 0
    +- 0.08 and the gap window (-0.5, 0), each with nu(lo) counted),
    the shift at lo takes 152, 304 and 776 Krylov solves at direct
    k_resolution 2, 4 and 8; shifting every window at hi took 170, 352 and
    867, and 1%, 10% and 10% more wall time (median of three runs, 2 CPUs).
    A window that starts inside band 0 took 21 solves per fiber at either
    edge at fluxes 1/4 and 1/8.  Every window whose lower edge the
    zero-field cell does not clear takes the shift at lo.
    """
    q = 4 * 0.5  # Mathieu q of the fixture's amplitude 0.5, per axis
    band = 2 * np.array([scipy.special.mathieu_a(0, q),
                         scipy.special.mathieu_b(1, q)]) / 4
    window = (band[0] - 0.08, band[1] + 0.08)
    M = DirectDiscretization(separable, Fraction(1, 8), points_per_cell=16
                             ).bloch_matrix(np.zeros(2))
    runs, eigsh = [], direct.spla.eigsh

    def run(*args, **kwargs):
        runs.append((kwargs["which"], kwargs["sigma"]))
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(direct.spla, "eigsh", run)
    for lower_clear, shift in [(False, ("LA", window[0])),
                               (True, ("SA", window[1]))]:
        got, below = window_eigs(M, window, lower_clear)
        assert below == 0 and got.size == 8
        assert runs and set(runs) == {shift}
        runs.clear()


@pytest.mark.parametrize("diagonal, window", [
    ({11: 10.0 + 1e-8}, (9.5, 12.5)),  # a pair 1e-8 apart
    ({}, (9.5, 12.0)),  # hi an eigenvalue: a gap of the 1e-9 edge move
], ids=["pair", "edge"])
def test_uncertified_ritz_values_are_solved_again_at_tol_0(
        monkeypatch, diagonal, window):
    values = np.arange(700.0)
    values[list(diagonal)] = list(diagonal.values())
    M = sp.diags(values + 0j).tocsr()
    runs = _counted_runs(monkeypatch)
    got, below = window_eigs(M, window, False)
    assert [tol for tol, _ in runs] == [KRYLOV_TOL, 0.0]
    dense = np.linalg.eigvalsh(M.toarray())
    expected = dense[(dense >= window[0]) & (dense <= window[1])]
    assert below == 10 and got.shape == expected.shape == (3,)
    assert np.max(np.abs(got - expected)) < 1e-12


def _certified_errors(M, dense, window, tol):
    """window_eigs with KRYLOV_TOL = tol, at each lower edge it takes:
    (error against dense, bound) of every value of a certified first run.
    The window's edges must not be eigenvalues."""
    records, out = [], []

    def record(vals, sigma, tol, unwanted):
        bounds = _kato_temple(vals, sigma, tol, unwanted)
        records.append((vals.copy(), bounds))
        return bounds

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(direct, "KRYLOV_TOL", tol)
        patch.setattr(direct, "_kato_temple", record)
        for lower_clear in [False] + ([True] if window[0] < dense[0] else []):
            records.clear()
            _, below = window_eigs(M, window, lower_clear=lower_clear)
            for vals, bounds in records[:1]:
                if np.all(np.isfinite(bounds)):
                    out.append((np.abs(vals - dense[below:below + vals.size]),
                                bounds))
    return out


def test_kato_temple_bounds_hold_on_diagonal_fibers():
    # exact spectra with pairs 1e-6 to 1e-2 apart; a loose tol makes the
    # bounds far larger than roundoff, and the slack covers the last
    # rounding of sigma + 1/theta
    rng = np.random.default_rng(7)
    certified = 0
    for tol in (1e-2, 1e-4, 1e-7, KRYLOV_TOL):
        for _ in range(4):
            values = rng.uniform(0.0, 10.0, 400)
            values[1::7] = values[::7][:57] + 10.0 ** rng.uniform(-6, -2, 57)
            dense = np.sort(values)
            lo = rng.uniform(-1.0, 9.0)
            window = (lo, lo + rng.uniform(0.05, 1.0))
            slack = 8 * np.finfo(float).eps * max(map(abs, window))
            M = sp.diags(values + 0j).tocsr()
            for errors, bounds in _certified_errors(M, dense, window, tol):
                assert np.all(errors <= bounds + slack)
                certified += 1
    assert certified >= 8


def test_kato_temple_bounds_hold_on_fd_fibers(separable):
    # the bound covers the early stop of the iteration, not the roundoff
    # of the factors and solves (a tol = 0 run has it too) nor that of
    # the dense eigenvalues: the slack, 100 eps ||M||, is 1.2e-12 here
    rng = np.random.default_rng(8)
    certified = 0
    for flux in ("1/2", "1/3", "2/3", "1/4"):
        disc = DirectDiscretization(separable, Fraction(flux),
                                    points_per_cell=16)
        M = disc.bloch_matrix(rng.uniform(-np.pi, np.pi, 2))
        dense = np.linalg.eigvalsh(M.toarray())
        slack = 100 * np.finfo(float).eps * abs(M).sum(axis=1).max()
        m = M.shape[0] // 8
        for tol in (1e-2, 1e-4, 1e-7, KRYLOV_TOL):
            lo = dense[0] - 0.1 + rng.uniform(0.0, 1.0) * (dense[m] - dense[0])
            window = (lo, min(lo + rng.uniform(0.05, 1.0),
                              0.5 * (dense[m - 1] + dense[m])))
            for errors, bounds in _certified_errors(M, dense, window, tol):
                assert np.all(errors <= bounds + slack)
                certified += 1
    assert certified >= 8


@settings(max_examples=8, deadline=None)
@given(
    flux=st.integers(1, 4).flatmap(
        lambda q: st.integers(-q, q).map(lambda p: Fraction(p, q))),
    k=st.tuples(*[st.floats(-np.pi, np.pi)] * 2),
    chi=st.sampled_from([None, "harmonic"]),
)
@example(flux=Fraction(0), k=(0.0, 0.0), chi=None)
def test_fiber_bottom_lies_above_the_zero_field_cell(separable,
                                                     gauged_stencil, flux,
                                                     k, chi):
    # the diamagnetic inequality that lets direct_spectrum certify a lower
    # window edge on the zero-field unit cell at k = 0; equality at zero
    # field and k = 0, and on the zero-field magnetic cell of q unit cells
    # (its Perron-Frobenius ground state is unit-cell periodic)
    n, q = 16, flux.denominator
    h = np.diag(separable.lattice.basis) / n
    zero = VectorPotential(MagneticField(0.0))
    floor, periodic = (
        np.linalg.eigvalsh(_fd_stencil(separable, zero, h, shape)
                           .matrix(np.zeros(2)).toarray())[0]
        for shape in ((n, n), (q * n, n)))
    assert abs(periodic - floor) < 1e-10
    M = gauged_stencil(DirectDiscretization(separable, flux, n),
                       chi).matrix(np.array(k))
    bottom = np.linalg.eigvalsh(M.toarray())[0]
    assert bottom >= floor - 1e-10
    if flux == 0 and k == (0.0, 0.0):
        assert abs(bottom - floor) < 1e-10


# one stencil per flux, re-phased per fiber, plus the cell when certified
@pytest.mark.parametrize("window, stencils, factorizations", [
    ((-0.83, -0.29), 2, 3),  # 2 fibers + the cell
    ((-0.5, 0.0), 2, 5),  # the cell reaches -0.5
], ids=["band", "gap"])
def test_certified_lower_edge_factors_each_fiber_once(
        separable, monkeypatch, window, stencils, factorizations):
    disc = DirectDiscretization(separable, Fraction(1, 4), points_per_cell=16)
    calls = {"stencil": 0, "factor": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(direct, "_fd_stencil",
                        counted("stencil", direct._fd_stencil))
    monkeypatch.setattr(direct, "_shift_factors",
                        counted("factor", direct._shift_factors))
    direct_spectrum(disc, window, merge_tol=1e-3, k_resolution=2,
                    lower_clear=certified_below(separable, 16, window))
    assert calls == {"stencil": stencils, "factor": factorizations}


@pytest.mark.parametrize("flux, r, kind, chi, window", [
    ("1/2", 2, Nonrelativistic, None, (-0.83, -0.29)),
    ("2/3", 3, Nonrelativistic, None, (-0.83, -0.29)),
    ("1/4", 6, Nonrelativistic, None, (-0.83, -0.29)),
    ("3/8", 4, Nonrelativistic, None, (-0.83, -0.29)),
    ("2/3", 2, Nonrelativistic, None, (-0.83, -0.29)),  # gcd(r, q) = 1
    ("1/4", 2, Nonrelativistic, "harmonic", (-0.83, -0.29)),
])
def test_fold_matches_the_full_grid(lat2, monkeypatch, flux, r, kind, chi,
                                    window, representative_rows,
                                    gauged_stencil):
    # fibers 2 pi/q apart in k2 have equal spectra, so one fiber per class
    # j2 mod r / gcd(r, q) stands for the whole class, for every k1
    flux = Fraction(flux)
    sym = PeriodicSymbol(kind(), separable_cosine_2d(lat2, 0.5))
    disc = DirectDiscretization(sym, flux, points_per_cell=16)
    stencil = gauged_stencil(disc, chi)
    axis = 2.0 * np.pi * np.arange(r) / r
    # every fiber holds its q subbands in the window: the branch table
    table = np.stack([window_eigs(stencil.matrix(k), window, False)[0]
                      for k in tensor_grid([axis, axis])])
    full = SpectrumSet(points=table, window=window, merge_tol=1e-3)
    momenta = magnetic_momenta(2, flux.denominator, r)
    reps = np.stack([window_eigs(stencil.matrix(k), window, False)[0]
                     for k in momenta])
    assert np.max(np.abs(reps[representative_rows(2, flux.denominator, r)]
                         - table)) < 1e-12

    calls = []

    def counted(self, k):
        calls.append(k)
        return stencil.matrix(k)

    monkeypatch.setattr(DirectDiscretization, "bloch_matrix", counted)
    folded = direct_spectrum(disc, window, merge_tol=1e-3, k_resolution=r)
    fibers = r * (r // np.gcd(r, flux.denominator))
    assert len(calls) == fibers == len(
        magnetic_momenta(2, disc.flux.denominator, r))
    assert np.array_equal(calls, momenta)
    # one row per fiber solved, q subbands each
    assert folded.points.size == fibers * flux.denominator
    assert np.array_equal(folded.points, np.sort(reps, axis=None))
    assert folded.merged_intervals.shape == full.merged_intervals.shape
    assert np.max(np.abs(folded.merged_intervals
                         - full.merged_intervals)) < 1e-12


def test_branches_crossing_the_lower_edge_are_clipped_there(separable):
    # a lower edge inside the lowest subband: some fibers hold branch 0
    # below the window, so nu(lo) differs between fibers, the cell does not
    # certify the edge, and branch 0 is clipped at lo
    disc = DirectDiscretization(separable, Fraction(1, 4), points_per_cell=16)
    momenta = magnetic_momenta(2, 4, 2)
    dense = np.stack([np.linalg.eigvalsh(disc.bloch_matrix(k).toarray())
                      for k in momenta])
    lo = 0.5 * (dense[:, 0].min() + dense[:, 0].max())
    hi = 0.5 * (dense[:, 3].max() + dense[:, 4].min())  # above the subbands
    assert not certified_below(separable, 16, (lo, hi))
    got = direct_spectrum(disc, (lo, hi), merge_tol=0.0, k_resolution=2)
    ranges = np.stack([np.maximum(dense.min(axis=0), lo),
                       np.minimum(dense.max(axis=0), hi)], axis=-1)
    ranges = ranges[ranges[:, 0] <= ranges[:, 1]]
    assert ranges.shape == (4, 2) and ranges[0, 0] == lo
    assert np.all(ranges[1:, 0] > ranges[:-1, 1])  # four disjoint subbands
    assert got.merged_intervals.shape == ranges.shape
    assert np.max(np.abs(got.merged_intervals - ranges)) < 1e-10


@pytest.mark.parametrize("flux, r", [("1/4", 8), ("1/3", 3), ("1/8", 4)])
def test_branch_tables_have_one_row_per_fiber(separable, nn_hoppings,
                                              monkeypatch, flux, r):
    # the Peierls and the finite-difference tables hold each fiber solved
    # once: 16 rows at flux 1/4 and r = 8, not one per grid point
    flux = Fraction(flux)
    disc = DirectDiscretization(separable, flux, points_per_cell=16)
    fibers = len(magnetic_momenta(2, disc.flux.denominator, r))
    assert bloch_eigenvalue_cloud(nn_hoppings, flux, r).shape == (
        fibers, flux.denominator)
    tables = []
    monkeypatch.setattr(direct, "SpectrumSet", lambda points, **kwargs: (
        tables.append(points.shape) or SpectrumSet(points, **kwargs)))
    direct_spectrum(disc, (-0.83, -0.29), merge_tol=0.0, k_resolution=r)
    assert len(tables) == 1 and tables[0][0] == fibers


def test_nonzero_flux_in_d1_is_refused(mathieu):
    # a magnetic field is a 2-form (H.5): in d=1 the library refuses a
    # nonzero flux, as the CLI does, where it returned the spectrum of
    # another operator
    hop = np.array([[-1.0 + 0j]])
    hops = HoppingSet(hoppings={(1,): hop, (-1,): hop}, asymmetry=0.0)
    for build in (lambda: DirectDiscretization(mathieu, Fraction(1, 3), 16),
                  lambda: bloch_eigenvalue_cloud(hops, Fraction(1, 3), 8),
                  lambda: box_matrix(hops, Fraction(1, 3), 4)):
        with pytest.raises(InputError, match="H.5"):
            build()


def test_no_fold_in_d1_or_at_integer_flux(mathieu, separable):
    d1 = DirectDiscretization(mathieu, Fraction(0), 16)
    d2 = DirectDiscretization(separable, Fraction(1), 16)
    assert len(magnetic_momenta(1, d1.flux.denominator, 6)) == 6
    assert len(magnetic_momenta(2, d2.flux.denominator, 6)) == 36


def test_relativistic_fd_size_is_bounded(separable):
    # the stencil discretizes the nonrelativistic kind alone, and stays
    # sparse at any size
    assert sp.issparse(DirectDiscretization(separable, Fraction(1, 16), 16)
                       .bloch_matrix(np.zeros(2)))
