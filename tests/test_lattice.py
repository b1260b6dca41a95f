import numpy as np
import pytest

from peierls.bloch import point_group
from peierls.lattice import (
    BZGrid,
    InputError,
    Lattice,
    bz_grid,
    dual_basis,
    dual_shell,
    magnetic_momenta,
    tensor_grid,
)
from peierls.symbols import Nonrelativistic, PeriodicPotential, PeriodicSymbol


@pytest.mark.parametrize("dim, q, r", [
    (1, 1, 5), (2, 1, 4), (2, 4, 6), (2, 3, 4), (2, 8, 8), (2, 16, 24),
])
def test_magnetic_momenta_are_the_k2_shift_classes(dim, q, r):
    # two points of the grid 2 pi j / r share a class exactly when their k1
    # agree and their k2 differ by a multiple of 2 pi/q, modulo 2 pi; the
    # momenta are the first point of each class, in C order
    j = tensor_grid([np.arange(r)] * dim)
    same = np.all(j[:, None, :-1] == j[None, :, :-1], axis=-1)
    same &= (q * (j[:, None, -1] - j[None, :, -1])) % r == 0
    first = np.flatnonzero(np.argmax(same, axis=1) == np.arange(len(j)))
    assert np.array_equal(magnetic_momenta(dim, q, r),
                          2.0 * np.pi * j[first] / r)


def test_magnetic_momenta_are_bounded():
    # a refused grid allocates nothing: 10^12 points would not fit
    with pytest.raises(InputError, match="limit"):
        magnetic_momenta(2, 4, 10**6)


def test_dual_basis_pairing():
    basis = np.array([[2.0, 0.3], [0.1, 1.5]])
    dual = dual_basis(basis)
    assert np.allclose(dual @ basis.T, 2.0 * np.pi * np.eye(2), atol=1e-12)


def test_dual_basis_rejects_singular():
    with pytest.raises(InputError, match="singular"):
        dual_basis(np.array([[1.0, 2.0], [2.0, 4.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_dual_basis_rejects_non_finite(bad):
    with pytest.raises(InputError, match="finite"):
        dual_basis(np.array([[1.0, 0.0], [0.0, bad]]))


def _time_reversal_maps(lat):
    """The fold maps of a symbol whose only symmetry is time reversal."""
    keys = [(1,), (2,)] if lat.dim == 1 else [(1, 0), (1, 1)]
    coeffs = {}
    for key, val in zip(keys, (0.4 * np.exp(0.7j), 0.2 * np.exp(1.4j))):
        coeffs[key] = val
        coeffs[tuple(-k for k in key)] = np.conj(val)
    symbol = PeriodicSymbol(Nonrelativistic(), PeriodicPotential(lat, coeffs))
    return point_group(symbol, dual_shell(lat, 3.0))[0]


@pytest.mark.parametrize("dim, res", [(1, 8), (1, 9), (2, 6), (2, 7)])
def test_mirror_sources_pair_each_point_with_its_negative(lat1, lat2, dim,
                                                           res):
    lat = lat1 if dim == 1 else lat2
    maps = _time_reversal_maps(lat)
    assert sorted(map(tuple, maps.reshape(2, -1))) == [
        tuple(-np.eye(dim, dtype=int).ravel()),
        tuple(np.eye(dim, dtype=int).ravel())]
    grid = bz_grid(lat, res)
    frac = grid.coords()
    orbit = grid.orbits(maps)[0]
    source = np.where(orbit == np.arange(orbit.size), -1, orbit)
    # the mirror sources of the time-reversal fold: j >= 1 mirrors to r - j,
    # and the -1/2 edge, xi = 0 and the earlier point of each pair are solved
    j = tensor_grid([np.arange(res)] * dim)
    mirror = np.ravel_multi_index(tuple(((res - j) % res).T), (res,) * dim)
    mirror[np.any(j == 0, axis=1) | (mirror >= np.arange(mirror.size))] = -1
    assert np.array_equal(source, mirror)
    for i, point in enumerate(frac):
        mirrored = np.flatnonzero(np.all(np.isclose(frac, -point), axis=1))
        # a copied point mirrors an earlier solved one
        if source[i] >= 0:
            assert list(mirrored) == [source[i]] and source[i] < i
            assert source[source[i]] == -1
        else:
            assert mirrored.size == 0 or mirrored[0] >= i


def test_cell_volumes_are_reciprocal(lat2):
    assert np.isclose(
        abs(np.linalg.det(lat2.basis)) * abs(np.linalg.det(lat2.dual)),
        (2.0 * np.pi) ** 2,
    )


def test_lattice_rejects_high_dimension():
    with pytest.raises(InputError, match="only d in"):
        Lattice(basis=np.eye(3))


def test_bz_grid_points_and_zero_index(lat2):
    grid = bz_grid(lat2, 8)
    pts = grid.points()
    assert pts.shape == (64, 2)
    assert np.allclose(pts[grid.index_of_zero()], 0.0)
    # half-open: +1/2 is excluded, -1/2 included
    frac = grid.coords()
    assert frac.min() == -0.5 and frac.max() < 0.5


def test_bz_grid_validation(lat1):
    with pytest.raises(InputError, match=">= 2"):
        BZGrid(lat1, 1)
    with pytest.raises(InputError, match="even resolution"):
        bz_grid(lat1, 5).index_of_zero()


def test_dual_shell_negation_closed_and_within_cutoff(lat2):
    shell = dual_shell(lat2, 3.0)
    members = {tuple(m) for m in shell.members}
    assert all(tuple(-np.array(m)) in members for m in members)
    assert np.all(np.linalg.norm(shell.members @ lat2.dual, axis=1) <= 3.0 + 1e-9)
    # zero mode always present
    assert (0, 0) in members


def test_dual_shell_deterministic_order(lat1):
    a = dual_shell(lat1, 4.0)
    b = dual_shell(lat1, 4.0)
    assert np.array_equal(a.members, b.members)
    assert a.size == 9  # n = -4..4 for the 2*pi lattice


def test_dual_shell_rejects_nonpositive_cutoff(lat1):
    with pytest.raises(InputError, match="positive"):
        dual_shell(lat1, 0.0)



def test_shell_index_of_matches_members():
    lat = Lattice(basis=np.array([[1.0, 0.3], [0.2, 1.4]]))
    shell = dual_shell(lat, 20.0)
    where = {tuple(m): i for i, m in enumerate(shell.members)}
    # a coefficient square well beyond the shell's candidate box
    span = np.arange(-12, 13)
    coeffs = np.stack(np.meshgrid(span, span, indexing="ij"), axis=-1)
    expected = [[where.get(tuple(c), -1) for c in row] for row in coeffs]
    assert np.array_equal(shell.index_of(coeffs), expected)
    assert 0 < shell.size < coeffs.size // 2
