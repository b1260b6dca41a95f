import ctypes
import ctypes.util
import os
import threading

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from peierls import bloch
from peierls.bloch import (
    MAX_BAND_ENTRIES,
    FiberAssembler,
    assemble_fiber_matrix,
    band_intervals,
    compute_bands,
    point_group,
)
from peierls.lattice import InputError, Lattice, bz_grid, dual_shell
from peierls.symbols import (
    Nonrelativistic,
    PeriodicPotential,
    PeriodicSymbol,
    Relativistic,
    cosine_potential,
    separable_cosine_2d,
    zero_potential,
)


def test_fiber_matrix_is_hermitian(mathieu, lat1):
    shell = dual_shell(lat1, 6.0)
    H = assemble_fiber_matrix(mathieu, [0.3], shell).entries
    assert np.allclose(H, np.conj(H.T), atol=1e-14)


def test_fiber_matrix_rejects_empty_shell(mathieu, lat1):
    shell = dual_shell(lat1, 6.0)
    empty = type(shell).__new__(type(shell))
    object.__setattr__(empty, "lattice", lat1)
    object.__setattr__(empty, "cutoff", 0.0)
    object.__setattr__(empty, "members", np.zeros((0, 1), dtype=int))
    with pytest.raises(InputError, match="empty"):
        assemble_fiber_matrix(mathieu, [0.0], empty)


def test_free_fiber_diagonal(lat1):
    free = PeriodicSymbol(Nonrelativistic(), zero_potential(lat1))
    shell = dual_shell(lat1, 3.0)
    fm = assemble_fiber_matrix(free, [0.2], shell)
    expected = (0.2 + (shell.members @ lat1.dual)[:, 0]) ** 2
    assert np.allclose(fm.entries, np.diag(expected), atol=1e-14)


def test_compute_bands_sorted_and_periodic(mathieu_bands):
    vals = mathieu_bands.bands
    assert np.all(np.diff(vals, axis=1) >= 0)
    # band functions are even in xi: lambda(-t) == lambda(t) on the grid
    res = mathieu_bands.grid.resolution
    for i in range(1, res // 2):
        assert np.allclose(vals[i], vals[res - i], atol=1e-10)


def test_compute_bands_rejects_oversized_request(mathieu, lat1):
    grid = bz_grid(lat1, 4)
    shell = dual_shell(lat1, 1.0)
    with pytest.raises(InputError, match="exceeds"):
        compute_bands(mathieu, grid, shell, shell.size + 1)
    for band in (-1, 2):
        with pytest.raises(InputError, match="vector_band"):
            compute_bands(mathieu, grid, shell, 2, band)


def test_compute_bands_refuses_fewer_than_one_worker(mathieu, lat1,
                                                    monkeypatch):
    # workers caps the chunks: 0 is no count of threads, not every core,
    # and the refusal comes before any fiber is solved
    threads = _solving_threads(monkeypatch)
    grid, shell = bz_grid(lat1, 4), dual_shell(lat1, 4.0)
    for workers in (0, -1):
        with pytest.raises(InputError, match=f"workers .* got {workers}"):
            compute_bands(mathieu, grid, shell, 2, workers=workers)
    assert threads == []
    assert compute_bands(mathieu, grid, shell, 2, workers=1).solved == 3


def test_band_intervals_simplicity_flags(mathieu_bands):
    iv = band_intervals(mathieu_bands, gap_tol=1e-6)
    # Mathieu bands 1 and 2 are simple and disjoint; the last computed band
    # can never be certified simple
    assert iv.simple_flags[0]
    assert iv.simple_flags[1]
    assert not iv.simple_flags[-1]
    assert np.all(iv.intervals[:, 0] <= iv.intervals[:, 1])


def _scanned_flags(vals, gap_tol):
    """Simplicity flags by the point scan: band k is simple when it stays
    more than gap_tol from its neighbors at every point and its interval
    is disjoint from every other band interval; the last band never is."""
    lo, hi = vals.min(axis=0), vals.max(axis=0)
    n = vals.shape[1]
    flags = np.zeros(n, dtype=bool)
    for k in range(n - 1):
        separated = np.min(vals[:, k + 1] - vals[:, k]) > gap_tol and (
            k == 0 or np.min(vals[:, k] - vals[:, k - 1]) > gap_tol)
        disjoint = all(hi[k] < lo[j] - gap_tol or lo[k] > hi[j] + gap_tol
                       for j in range(n) if j != k)
        flags[k] = separated and disjoint
    return flags


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n_points=st.integers(1, 6), n_bands=st.integers(1, 5),
       gap_tol=st.sampled_from([0.0, 1e-6, 0.5, 1.0]))
def test_band_intervals_flags_equal_the_point_scan(data, n_points, n_bands,
                                                   gap_tol):
    # ascending rows on a grid of step 0.5, some values moved by 2^-20 or
    # 2^-21, so gaps fall on both sides of each gap_tol: bands that touch,
    # cross, and clear each other by about gap_tol.  Every value is a
    # multiple of 2^-21 below 5, so every difference is exact and no gap
    # lies within a rounding of gap_tol, where the two tests may round apart
    size = n_points * n_bands
    steps = data.draw(st.lists(st.integers(0, 8), min_size=size,
                               max_size=size))
    moves = data.draw(st.lists(st.sampled_from([0, 2, -2, 1]), min_size=size,
                               max_size=size))
    table = np.sort((0.5 * np.array(steps) + np.ldexp(moves, -21)).reshape(
        n_points, n_bands), axis=1)
    bands = bloch.BandStructure(grid=None, shell=None, bands=table,
                                vectors=None, solved=n_points)
    assert np.array_equal(band_intervals(bands, gap_tol).simple_flags,
                          _scanned_flags(table, gap_tol))



def _shifted_cosine(lattice, amplitude, shift):
    """V(y) = 2 a cos(<e*_1, y> - shift): real V with complex V_hat."""
    d = lattice.dim
    plus = (1,) + (0,) * (d - 1)
    minus = (-1,) + (0,) * (d - 1)
    phase = np.exp(-1j * shift)
    return PeriodicPotential(
        lattice, {plus: amplitude * phase, minus: amplitude * np.conj(phase)}
    )


def _fiber_symbols(lat1, lat2):
    return {
        "nonrelativistic": PeriodicSymbol(
            Nonrelativistic(), separable_cosine_2d(lat2, 0.5)),
        "nonrelativistic-complex": PeriodicSymbol(
            Nonrelativistic(), _shifted_cosine(lat2, 0.5, 0.7)),
        "relativistic": PeriodicSymbol(Relativistic(), cosine_potential(lat1, 0.3)),
        "relativistic-complex": PeriodicSymbol(
            Relativistic(), _shifted_cosine(lat1, 0.3, 1.1)),
    }


def _entrywise_fiber(symbol, xi, shell):
    """H(xi)[g, b] entry by entry from the bloch module-docstring formula."""
    members = shell.members
    gammas = shell.members @ shell.lattice.dual
    M = shell.size
    H = np.zeros((M, M), dtype=complex)
    for g in range(M):
        for b in range(M):
            key = tuple(int(k) for k in members[g] - members[b])
            H[g, b] = symbol.potential.coeffs.get(key, 0.0)
            if g == b:
                H[g, b] += symbol.kinetic(xi + gammas[g])[0]
    return H


FIBER_KINDS = ("nonrelativistic", "nonrelativistic-complex", "relativistic",
               "relativistic-complex")


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(FIBER_KINDS),
       frac=st.lists(st.floats(-0.5, 0.5), min_size=2, max_size=2))
def test_assembler_matches_entrywise_formula(lat1, lat2, name, frac):
    symbol = _fiber_symbols(lat1, lat2)[name]
    lat = symbol.lattice
    shell = dual_shell(lat, 3.0 if lat.dim == 2 else 5.0)
    xi = np.asarray(frac[:lat.dim]) @ lat.dual
    H = FiberAssembler(symbol, shell)(xi)
    real = all(v.imag == 0 for v in symbol.potential.coeffs.values())
    assert real != name.endswith("-complex")
    assert H.dtype == (np.float64 if real else np.complex128)
    assert np.max(np.abs(H - _entrywise_fiber(symbol, xi, shell))) < 1e-13
    # the single-point wrapper returns the same fiber as a complex matrix
    single = assemble_fiber_matrix(symbol, xi, shell).entries
    assert single.dtype == np.complex128 and np.array_equal(single, H)


def test_real_and_complex_fibers_give_the_same_bands(lat2):
    """A shifted cosine is a translate of the cosine: the same spectrum,
    once through the real-symmetric and once through the complex solver."""
    grid = bz_grid(lat2, 4)
    shell = dual_shell(lat2, 4.0)
    real = PeriodicSymbol(Nonrelativistic(), _shifted_cosine(lat2, 0.5, 0.0))
    cplx = PeriodicSymbol(Nonrelativistic(), _shifted_cosine(lat2, 0.5, 0.7))
    assert FiberAssembler(real, shell).dtype == np.float64
    assert FiberAssembler(cplx, shell).dtype == np.complex128
    a = compute_bands(real, grid, shell, 4).bands
    b = compute_bands(cplx, grid, shell, 4).bands
    assert np.max(np.abs(a - b)) < 1e-12


def _lopsided_potential(lattice, shift):
    """A real V with no symmetry beyond reality: V_hat is complex for a
    nonzero shift, and in d=2 the potential is not separable."""
    phase = np.exp(-1j * shift)
    if lattice.dim == 1:
        coeffs = {(1,): 0.4 * phase, (-1,): 0.4 * np.conj(phase),
                  (2,): 0.15 * phase**3, (-2,): 0.15 * np.conj(phase**3)}
    else:
        coeffs = {(1, 0): 0.4 * phase, (-1, 0): 0.4 * np.conj(phase),
                  (0, 1): 0.3, (0, -1): 0.3,
                  (1, 1): 0.2 * phase**2, (-1, -1): 0.2 * np.conj(phase**2)}
    return PeriodicPotential(lattice, coeffs)


def _plain_bands(symbol, grid, shell, n_bands):
    """Every grid point diagonalized on its own."""
    assemble = FiberAssembler(symbol, shell)
    return np.stack([np.linalg.eigvalsh(assemble(xi))[:n_bands]
                     for xi in grid.points()])


FOLD_CASES = [(kind, dim, shift, res)
              for kind in (Nonrelativistic, Relativistic)
              for dim, sizes in ((1, (12, 13)), (2, (6, 7)))
              for shift in (0.0, 0.7)
              for res in sizes]


@pytest.mark.parametrize("kind, dim, shift, res", FOLD_CASES)
def test_folded_bands_match_every_point_solved(lat1, lat2, kind, dim, shift,
                                               res):
    lat = lat1 if dim == 1 else lat2
    symbol = PeriodicSymbol(kind(), _lopsided_potential(lat, shift))
    assert (FiberAssembler(symbol, dual_shell(lat, 1.0)).dtype
            == (np.float64 if shift == 0.0 else np.complex128))
    _check_folded_bands(symbol, bz_grid(lat, res),
                        dual_shell(lat, 5.0 if dim == 1 else 3.0))


def _check_folded_bands(symbol, grid, shell):
    """Every folded point matches its own fiber solved on its own, and its
    mapped vector is an eigenvector of the kept band, for each band kept."""
    plain = _plain_bands(symbol, grid, shell, 3)
    assemble = FiberAssembler(symbol, shell)
    for k in range(3):
        bands = compute_bands(symbol, grid, shell, 3, k)
        assert np.max(np.abs(bands.bands - plain)) < 1e-12
        for xi, vals, vec in zip(grid.points(), bands.bands, bands.vectors):
            assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12
            assert np.linalg.norm(assemble(xi) @ vec - vals[k] * vec) <= 1e-10


@pytest.mark.parametrize("dim, res, solved", [(2, 16, 144), (1, 64, 33)])
def test_fold_solves_one_point_per_pair(lat1, lat2, monkeypatch, dim, res,
                                        solved):
    lat = lat1 if dim == 1 else lat2
    symbol = PeriodicSymbol(Nonrelativistic(), _lopsided_potential(lat, 0.7))
    grid = bz_grid(lat, res)
    shell = dual_shell(lat, 2.0)
    maps = point_group(symbol, shell)[0]
    assert np.unique(grid.orbits(maps)[0]).size == solved
    calls, bands = _counted_solves(monkeypatch, symbol, grid, shell)
    assert len(calls) == bands.solved == solved
    # the count the CLI reports for direct at flux 0 (shell radius 6)
    cli_shell = dual_shell(lat, 6.0)
    assert compute_bands(symbol, grid, cli_shell, 2).solved == solved


def _identity_case(name, lat1, lat2):
    """(symbol, grid, shell) of one fiber kind."""
    if name == "separable":
        return (PeriodicSymbol(Nonrelativistic(), separable_cosine_2d(lat2, 0.5)),
                bz_grid(lat2, 8), dual_shell(lat2, 6.0))
    if name == "mathieu":
        return (PeriodicSymbol(Nonrelativistic(), cosine_potential(lat1, 0.5)),
                bz_grid(lat1, 64), dual_shell(lat1, 8.0))
    kind = Nonrelativistic if name == "lopsided" else Relativistic
    return (PeriodicSymbol(kind(), _lopsided_potential(lat2, 0.7)),
            bz_grid(lat2, 7), dual_shell(lat2, 4.0))


def _kept_bands(vectors):
    """The vector_band values of a test: each of 3 bands, or no vectors."""
    return (0, 1, 2) if vectors else (None,)


@pytest.mark.parametrize("vectors", [True, False])
@pytest.mark.parametrize("name",
                         ["separable", "mathieu", "lopsided", "relativistic"])
def test_bands_equal_eigh_bit_for_bit(lat1, lat2, name, vectors):
    """The direct LAPACK call returns what eigh(subset_by_index) returns,
    and the kept vectors are its column vector_band."""
    symbol, grid, shell = _identity_case(name, lat1, lat2)
    assemble = FiberAssembler(symbol, shell)
    assert assemble.dtype == (np.complex128 if name in ("lopsided",
                                                        "relativistic")
                              else np.float64)
    source = grid.orbits(point_group(symbol, shell)[0])[0]
    points = grid.points()
    ref = {i: scipy.linalg.eigh(assemble(points[i]), subset_by_index=[0, 2])
           for i in np.unique(source)}
    for vector_band in _kept_bands(vectors):
        bands = compute_bands(symbol, grid, shell, 3, vector_band)
        assert (bands.bands == np.stack([ref[i][0] for i in source])).all()
        if vector_band is None:
            assert bands.vectors is None
            continue
        assert bands.vectors.shape == (len(points), shell.size)
        assert bands.vectors.dtype == assemble.dtype  # real fibers: float64
        for i, (_, vecs) in ref.items():
            assert (bands.vectors[i] == vecs[:, vector_band]).all()


@pytest.mark.parametrize("name", ["mathieu", "separable", "complex"])
def test_kept_vectors_leave_the_bands_unchanged(lat1, lat2, name):
    """The bands of a solve that keeps one band's vectors are those of the
    values-only solve bit for bit (?syevr or ?heevr with jobz "V" and
    "N"), for real fibers in d = 1 and 2 and complex ones in d = 2: the
    CLI serves a values request from its last solve with vectors."""
    if name == "complex":
        # complex coefficients, no real symmetric form
        symbol = PeriodicSymbol(Nonrelativistic(), PeriodicPotential(lat2, {
            (1, 0): 0.3 + 0.2j, (-1, 0): 0.3 - 0.2j,
            (1, 1): 0.15j, (-1, -1): -0.15j}))
        grid, shell = bz_grid(lat2, 7), dual_shell(lat2, 5.0)
    else:
        symbol, grid, shell = _identity_case(name, lat1, lat2)
    assert FiberAssembler(symbol, shell).dtype == (
        np.complex128 if name == "complex" else np.float64)
    values = compute_bands(symbol, grid, shell, 3).bands
    for vector_band in range(3):
        kept = compute_bands(symbol, grid, shell, 3, vector_band)
        assert kept.vectors is not None
        assert kept.bands.tobytes() == values.tobytes()


def _split(monkeypatch, workers):
    """Split every compute_bands over `workers` chunks, however small."""
    monkeypatch.setattr(bloch, "_workers", lambda: workers)
    monkeypatch.setattr(bloch, "THREAD_WORK", 1)


@pytest.mark.parametrize("vectors", [True, False])
@pytest.mark.parametrize("name",
                         ["separable", "mathieu", "lopsided", "relativistic"])
def test_split_bands_equal_eigh_bit_for_bit(lat1, lat2, monkeypatch, name,
                                            vectors):
    """A fiber's bands and vectors do not depend on the thread that solves
    it: with 1, 2 or 3 chunks they are eigh(subset_by_index)'s bits, and
    the argument workers=1 keeps every solve in the calling thread."""
    symbol, grid, shell = _identity_case(name, lat1, lat2)
    assemble = FiberAssembler(symbol, shell)
    solved = np.unique(grid.orbits(point_group(symbol, shell)[0])[0])
    points = grid.points()
    ref = [scipy.linalg.eigh(assemble(points[i]), subset_by_index=[0, 2])
           for i in solved]
    threads = _solving_threads(monkeypatch)
    for workers, argument in [(1, None), (2, None), (3, None), (3, 1)]:
        _split(monkeypatch, workers)
        for vector_band in _kept_bands(vectors):
            threads.clear()
            bands = compute_bands(symbol, grid, shell, 3, vector_band,
                                  workers=argument)
            if argument == 1:
                assert set(threads) == {threading.get_ident()}
            assert (bands.bands[solved] == np.stack([r[0] for r in ref])).all()
            if vector_band is not None:
                assert (bands.vectors[solved] == np.stack(
                    [r[1][:, vector_band] for r in ref])).all()


def test_workers_take_every_core_beside_a_one_thread_blas(blas_threads,
                                                          monkeypatch):
    # the scipy OpenBLAS solves the fibers: beside one thread of it they
    # take every core, beside more they stay in one thread
    blas_threads(1)
    assert bloch._workers() == len(os.sched_getaffinity(0))
    blas_threads(2)
    assert bloch._workers() == 1
    # where os has no affinity call (macOS, Windows), every core it counts
    with monkeypatch.context() as patch:
        patch.delattr(os, "sched_getaffinity")
        patch.setattr(os, "cpu_count", lambda: 5)
        blas_threads(1)
        assert bloch._workers() == 5
        patch.setattr(os, "cpu_count", lambda: None)
        assert bloch._workers() == 1
        blas_threads(2)
        assert bloch._workers() == 1
    # without thread controls (MKL, a system BLAS) nothing is pinned, and
    # the fibers stay in one thread
    blas_threads(1)
    monkeypatch.setattr(bloch, "_blas_controls", dict)
    assert bloch._workers() == 1
    with bloch.one_blas_thread():
        assert bloch._workers() == 1


def test_a_blas_without_the_symbols_gives_no_controls(monkeypatch):
    # the lookup itself, uncached, where each extension links a library
    # without the OpenBLAS thread functions (here the C math library):
    # no module has controls, and nothing raises
    libm = ctypes.CDLL(ctypes.util.find_library("m"))
    monkeypatch.setattr(bloch.ctypes, "CDLL", lambda path: libm)
    assert bloch._blas_controls.__wrapped__() == {}


def test_one_blas_thread_gives_the_counts_back(blas_threads):
    counts = [get for _, get in bloch._blas_controls().values()]
    blas_threads(2)
    with bloch.one_blas_thread():
        assert [get() for get in counts] == [1] * len(counts)
    assert [get() for get in counts] == [2] * len(counts)
    with pytest.raises(ZeroDivisionError), bloch.one_blas_thread():
        1 / 0
    assert [get() for get in counts] == [2] * len(counts)


def _solving_threads(monkeypatch):
    """The idents of the threads that solve fibers, one entry per solve."""
    threads = []

    def recording(evr):
        def solve(*args):
            if not _is_query(args):
                threads.append(threading.get_ident())
            return evr(*args)

        return solve

    _wrapped_handles(monkeypatch, recording)
    return threads


def test_only_work_worth_a_thread_is_split(mathieu, separable, lat1, lat2,
                                           monkeypatch):
    monkeypatch.setattr(bloch, "_workers", lambda: 3)
    threads = _solving_threads(monkeypatch)
    before = threading.active_count()
    # 33 fibers of basis size 17 stay in the calling thread
    compute_bands(mathieu, bz_grid(lat1, 64), dual_shell(lat1, 8.0), 4)
    assert set(threads) == {threading.get_ident()} and len(threads) == 33
    threads.clear()
    # 45 of basis size 113 take a chunk each of 15 in three threads
    compute_bands(separable, bz_grid(lat2, 16), dual_shell(lat2, 6.0), 4)
    assert len(threads) == 45 and len(set(threads)) == 3
    assert threads.count(threading.get_ident()) == 15
    assert threading.active_count() == before


@pytest.mark.parametrize("failing, named", [((13,), 13), ((13, 7), 7),
                                            ((14, 2), 2)])
def test_split_failure_names_the_lowest_failing_xi(separable, lat2,
                                                   monkeypatch, failing,
                                                   named):
    """With 3 chunks of 5 of the 15 solves, a LAPACK failure in the last
    chunk, or in two, names the xi the serial loop would name first."""
    grid, shell = bz_grid(lat2, 8), dual_shell(lat2, 3.0)
    assemble = FiberAssembler(separable, shell)
    solved = np.unique(grid.orbits(point_group(separable, shell)[0])[0])
    assert solved.size == 15
    xi = grid.points()[solved]
    diagonals = np.stack([assemble(x).diagonal() for x in xi])
    size = shell.size

    def failing_at(evr):
        def solve(*args):
            if _is_query(args):
                return evr(*args)
            fiber = np.ctypeslib.as_array(
                (ctypes.c_double * size**2).from_address(args[4]))
            row = np.argmin(np.abs(diagonals - fiber[:: size + 1]).max(1))
            evr(*args)
            if row in failing:
                ctypes.c_int.from_address(args[-1]).value = 7

        return solve

    _split(monkeypatch, 3)
    _wrapped_handles(monkeypatch, failing_at)
    before = threading.active_count()
    with pytest.raises(bloch.EigensolverError, match="LAPACK syevr info=7"
                       ) as error:
        compute_bands(separable, grid, shell, 2)
    assert (error.value.xi == xi[named]).all()
    assert threading.active_count() == before


def _wrapped_handles(monkeypatch, wrap):
    """Replace each MRRR handle evr of bloch by wrap(evr)."""
    for dtype, (name, evr, kinds) in list(bloch._MRRR.items()):
        monkeypatch.setitem(bloch._MRRR, dtype, (name, wrap(evr), kinds))


def _is_query(args):
    """A workspace query passes lwork = -1."""
    return ctypes.c_int.from_address(args[17]).value == -1


def _counted_solves(monkeypatch, symbol, grid, shell):
    """The LAPACK eigensolver calls of one compute_bands, and its bands."""
    calls = _solving_threads(monkeypatch)
    return calls, compute_bands(symbol, grid, shell, 2)


def test_group_fold_solves_one_point_per_orbit(separable, lat2, monkeypatch):
    calls, bands = _counted_solves(monkeypatch, separable, bz_grid(lat2, 16),
                                   dual_shell(lat2, 6.0))
    assert len(calls) == bands.solved == 45


def _group_case(name):
    """(lattice, potential, group order, solves on a 12^2 grid or None)."""
    if name == "hexagonal":
        lat = Lattice(2.0 * np.pi * np.array([[1.0, 0.0],
                                              [0.5, np.sqrt(3.0) / 2.0]]))
        keys = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)]
        return lat, PeriodicPotential(lat, dict.fromkeys(keys, 0.3)), 12, None
    if name == "rectangular":
        # equal amplitudes, but the swap of the axes is not orthogonal
        lat = Lattice(np.diag([2.0 * np.pi, 3.0 * np.pi]))
        return lat, separable_cosine_2d(lat, 0.4), 4, 49
    lat = Lattice(2.0 * np.pi * np.eye(2))
    if name == "square":
        return lat, separable_cosine_2d(lat, 0.5), 8, 28
    # complex V_hat whose only symmetry besides reality swaps the axes
    a = 0.4 * np.exp(0.6j)
    coeffs = {(1, 0): a, (0, 1): a, (-1, 0): np.conj(a), (0, -1): np.conj(a)}
    return lat, PeriodicPotential(lat, coeffs), 4, None


GROUP_CASES = [(name, kind, res)
               for name in ("square", "hexagonal", "rectangular", "swap")
               for kind in (Nonrelativistic, Relativistic)
               for res in (12, 7)]


@pytest.mark.parametrize("name, kind, res", GROUP_CASES)
def test_group_fold_matches_every_point_solved(name, kind, res):
    lat, potential, order, solves = _group_case(name)
    symbol = PeriodicSymbol(kind(), potential)
    grid = bz_grid(lat, res)
    shell = dual_shell(lat, 3.0)
    maps = point_group(symbol, shell)[0]
    assert len(maps) == order
    # on the shortest dual vectors only orthogonality rejects the swap
    assert len(point_group(symbol, dual_shell(lat, 1.2))[0]) == order
    if solves is not None and res == 12:
        assert np.unique(grid.orbits(maps)[0]).size == solves
    _check_folded_bands(symbol, grid, shell)


@pytest.mark.parametrize("shift", [0.0, 0.7])
def test_apply_matches_the_assembled_fibers(lat2, shift):
    symbol = PeriodicSymbol(Relativistic(), _lopsided_potential(lat2, shift))
    shell = dual_shell(lat2, 3.0)
    assemble = FiberAssembler(symbol, shell)
    rng = np.random.default_rng(3)
    xi = rng.normal(size=(5, 2))
    vecs = rng.normal(size=(5, shell.size)) + 1j * rng.normal(
        size=(5, shell.size))
    expected = np.stack([assemble(x) @ v for x, v in zip(xi, vecs)])
    assert np.max(np.abs(assemble.apply(xi, vecs) - expected)) < 1e-12


class _NoSolver(dict):
    def __getitem__(self, key):
        raise AssertionError("eigensolver fetched for an oversized grid")


def test_band_grid_size_is_bounded(separable, lat2, monkeypatch):
    monkeypatch.setattr(bloch, "_MRRR", _NoSolver())
    shell = dual_shell(lat2, 8.0)
    assert shell.size == 197
    # the largest band grid of the acceptance suite fits
    assert 48**2 * (4 + shell.size) <= MAX_BAND_ENTRIES
    with pytest.raises(InputError, match="limit"):
        compute_bands(separable, bz_grid(lat2, 4096), shell, 2)
    # one band's vectors: 256^2 (2 + 197) entries pass the bound and reach
    # the solver, 512^2 (2 + 197) do not
    with pytest.raises(AssertionError, match="fetched"):
        compute_bands(separable, bz_grid(lat2, 256), shell, 2, 1)
    with pytest.raises(InputError, match="limit"):
        compute_bands(separable, bz_grid(lat2, 512), shell, 2, 1)
