import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peierls.bloch import (
    FiberAssembler,
    assemble_fiber_matrix,
    band_intervals,
    compute_bands,
)
from peierls.lattice import bz_grid, dual_shell
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
    with pytest.raises(ValueError, match="empty"):
        assemble_fiber_matrix(mathieu, [0.0], empty)


def test_free_fiber_diagonal(lat1):
    free = PeriodicSymbol(Nonrelativistic(), zero_potential(lat1))
    shell = dual_shell(lat1, 3.0)
    fm = assemble_fiber_matrix(free, [0.2], shell)
    expected = (0.2 + shell.points()[:, 0]) ** 2
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
    with pytest.raises(ValueError, match="exceeds"):
        compute_bands(mathieu, grid, shell, shell.size + 1)


def test_band_intervals_simplicity_flags(mathieu_bands):
    iv = band_intervals(mathieu_bands, gap_tol=1e-6)
    # Mathieu bands 1 and 2 are simple and disjoint; the last computed band
    # can never be certified simple
    assert iv.simple_flags[0]
    assert iv.simple_flags[1]
    assert not iv.simple_flags[-1]
    assert np.all(iv.intervals[:, 0] <= iv.intervals[:, 1])



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
    gammas = shell.points()
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
