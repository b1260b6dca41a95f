import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peierls.lattice import InputError
from peierls.magnetic import (
    CHI_CATALOG,
    BoxGrid,
    MagneticField,
    VectorPotential,
    bloch_operator,
    hermitian_sqrt,
    line_phase,
    quantize_on_grid,
    relativistic_sqrt_compare,
    transversal_gauge,
)


def test_transversal_gauge_constant_field():
    A = transversal_gauge(MagneticField(0.7), np.array([[2.0, 3.0]]))
    assert np.allclose(A, [[-0.5 * 0.7 * 3.0, 0.5 * 0.7 * 2.0]])


def test_line_phase_cocycle_constant_field():
    b = 0.9
    A = VectorPotential(MagneticField(b))
    x, y, z = np.array([0.2, -1.0]), np.array([1.4, 0.3]), np.array([-0.5, 2.0])
    prod = line_phase(A, x, y) * line_phase(A, y, z) * line_phase(A, z, x)
    # the flux through the oriented triangle is b times its signed area
    u, v = y - x, z - x
    area = 0.5 * (u[0] * v[1] - u[1] * v[0])
    assert abs(prod - np.exp(-1j * b * area)) < 1e-13


def test_line_phase_gradient_gauge_factorizes():
    field = MagneticField(0.5)
    base = VectorPotential(field)
    shifted = VectorPotential(field, chi="harmonic")
    x, y = np.array([0.3, 0.7]), np.array([-1.1, 0.4])
    chi = CHI_CATALOG["harmonic"]
    extra = np.exp(-1j * (chi(y) - chi(x)))
    assert abs(line_phase(shifted, x, y) - line_phase(base, x, y) * extra) < 1e-12


def test_gauge_catalog_validation():
    with pytest.raises(InputError, match="not in the catalog"):
        VectorPotential(MagneticField(1.0), chi="landau")
    with pytest.raises(InputError, match="not in the catalog"):
        VectorPotential(MagneticField(1.0), chi="nope")


def test_quantize_free_kinetic_is_spectral():
    grid = BoxGrid(dim=1, n=32, length=2.0 * np.pi)
    op = quantize_on_grid(lambda eta: float(eta @ eta), None, grid)
    vals = np.sort(np.linalg.eigvalsh(op.matrix))
    expected = np.sort(np.einsum("ij,ij->i", grid.momenta(), grid.momenta()))
    assert np.allclose(vals, expected, atol=1e-10)


def test_quantize_gauge_covariance_spectra():
    field = MagneticField(0.5)
    grid = BoxGrid(dim=2, n=10, length=4.0)
    base = VectorPotential(field)
    shifted = VectorPotential(field, chi="quadratic")
    pot = lambda z: np.cos(z[0])  # noqa: E731
    v0 = np.linalg.eigvalsh(
        quantize_on_grid(lambda e: float(e @ e), base, grid, pot).matrix
    )
    v1 = np.linalg.eigvalsh(
        quantize_on_grid(lambda e: float(e @ e), shifted, grid, pot).matrix
    )
    assert np.max(np.abs(np.sort(v0) - np.sort(v1))) < 1e-9


def test_hermitian_sqrt():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    m = a @ np.conj(a.T) + np.eye(12)
    root = hermitian_sqrt(m)
    assert np.linalg.norm(root @ root - m, ord=2) < 1e-10
    with pytest.raises(ValueError, match="positive semidefinite"):
        hermitian_sqrt(-np.eye(3))


def test_relativistic_sqrt_zero_field_exact():
    grid = BoxGrid(dim=2, n=8, length=4.0)
    out = relativistic_sqrt_compare(0.5, grid, [0.0])
    assert out[0.0] < 1e-9


def test_box_grid_validation():
    with pytest.raises(InputError, match="at least 8"):
        BoxGrid(dim=1, n=4, length=1.0)
    grid = BoxGrid(dim=2, n=8, length=4.0)
    assert grid.positions().shape == (64, 2)
    assert np.isclose(grid.spacing, 0.5)


def test_bloch_operator_sums_equal_entries(coefficients):
    # entries of equal row, column and shift add up; the shifts come out
    # in lexicographic order, C_0 among them
    op = bloch_operator(np.array([0, 0, 1, 0, 1]), np.array([1, 1, 0, 1, 1]),
                        np.array([(1, 0), (1, 0), (-1, 2), (0, 0), (1, 0)]),
                        np.reshape([1.0, 2j, 3.0, 4.0, 5.0], (-1, 1, 1)), 2)
    assert op.shifts.tolist() == [[-1, 2], [0, 0], [1, 0]]
    terms = coefficients(op)
    assert terms[(-1, 2)].toarray().tolist() == [[0, 0], [3, 0]]
    assert terms[(0, 0)].toarray().tolist() == [[0, 4], [0, 0]]
    assert terms[(1, 0)].toarray().tolist() == [[0, 1 + 2j], [0, 5]]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), size=st.integers(1, 6),
       count=st.integers(1, 40))
def test_bloch_operator_views_agree(seed, size, count):
    # on random operators, repeated entries included, the CSR view is the
    # dense view bit for bit, and k = None is k = 0
    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(0, size, (2, count))
    entries = rng.normal(size=count) + 1j * rng.normal(size=count)
    op = bloch_operator(rows, cols, rng.integers(-2, 3, (count, 2)),
                        entries[:, None, None], size)
    kpts = rng.uniform(-np.pi, np.pi, (3, 2))
    for k, fiber in zip(kpts, op.dense(kpts)):
        assert np.array_equal(op.matrix(k).toarray(), op.dense([k])[0])
        assert np.allclose(fiber, op.dense([k])[0], rtol=0, atol=1e-14)
    H0 = op.matrix(None).toarray()
    assert np.array_equal(H0, op.matrix(np.zeros(2)).toarray())
    expected = np.zeros((size, size), dtype=complex)
    np.add.at(expected, (rows, cols), entries)
    assert np.allclose(H0, expected, rtol=0, atol=1e-13)
