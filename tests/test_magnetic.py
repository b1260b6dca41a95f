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
    M = quantize_on_grid(lambda eta: float(eta @ eta),
                         VectorPotential(MagneticField(0.0)), grid)
    vals = np.sort(np.linalg.eigvalsh(M))
    expected = np.sort(np.einsum("ij,ij->i", grid.momenta(), grid.momenta()))
    assert np.allclose(vals, expected, atol=1e-10)


def test_quantize_gauge_covariance_spectra():
    field = MagneticField(0.5)
    grid = BoxGrid(dim=2, n=10, length=4.0)
    base = VectorPotential(field)
    shifted = VectorPotential(field, chi="quadratic")
    pot = lambda z: np.cos(z[0])  # noqa: E731
    v0 = np.linalg.eigvalsh(
        quantize_on_grid(lambda e: float(e @ e), base, grid, pot)
    )
    v1 = np.linalg.eigvalsh(
        quantize_on_grid(lambda e: float(e @ e), shifted, grid, pot)
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
    # dense view bit for bit
    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(0, size, (2, count))
    entries = rng.normal(size=count) + 1j * rng.normal(size=count)
    op = bloch_operator(rows, cols, rng.integers(-2, 3, (count, 2)),
                        entries[:, None, None], size)
    kpts = rng.uniform(-np.pi, np.pi, (3, 2))
    for k, fiber in zip(kpts, op.dense(kpts)):
        assert np.array_equal(op.matrix(k).toarray(), op.dense([k])[0])
        assert np.allclose(fiber, op.dense([k])[0], rtol=0, atol=1e-14)
    H0 = op.matrix(np.zeros(2)).toarray()
    expected = np.zeros((size, size), dtype=complex)
    np.add.at(expected, (rows, cols), entries)
    assert np.allclose(H0, expected, rtol=0, atol=1e-13)


def _bloch_operator_reference(rows, cols, shifts, entries, size):
    """bloch_operator as first written: int64 keys over the repeated
    shifts, a shift code per entry and gathers by fancy indexing."""
    n, i = entries.shape[1], np.arange(entries.shape[1])
    rows, cols = (x.ravel() for x in np.broadcast_arrays(
        rows[:, None, None] * n + i[:, None], cols[:, None, None] * n + i))
    shifts, size = np.repeat(shifts, n * n, axis=0), size * n
    base, entries = 2 * np.abs(shifts).max() + 1, entries.ravel()
    code = sum(axis * base**p for p, axis in enumerate(shifts.T[::-1]))
    key = rows * size + cols
    order = np.argsort(key, kind="stable")
    new = np.diff(key[order], prepend=-1) != 0
    pattern, where = key[order][new], np.empty_like(order)
    where[order] = np.cumsum(new) - 1
    order = order[np.argsort(code[order], kind="stable")]
    code, where, data = code[order], where[order], entries[order]
    term = code * pattern.size + where
    first = np.diff(term, prepend=term[:1] - 1) != 0
    starts, dup = np.flatnonzero(first), np.flatnonzero(~first)
    summed, at = data[starts], where[starts]
    np.add.at(summed, np.searchsorted(starts, dup, "right") - 1, data[dup])
    bounds = np.flatnonzero(np.diff(code[starts], prepend=code[:1] - 1))
    runs = list(zip(bounds.tolist(), bounds[1:].tolist() + [starts.size]))
    return (np.searchsorted(pattern, np.arange(size + 1) * size
                            ).astype(np.int32),
            (pattern % size).astype(np.int32),
            shifts.take(order[starts[bounds]], axis=0),
            tuple(at[a:b] for a, b in runs),
            tuple(summed[a:b] for a, b in runs))


def _assert_identical(op, reference):
    """Every array of op equals the reference's, dtype and bits."""
    indptr, indices, shifts, at, data = reference
    fields = [(op.indptr, indptr), (op.indices, indices),
              (op.shifts, shifts)]
    assert len(op.at) == len(at) and len(op.data) == len(data)
    for got, want in fields + list(zip(op.at, at)) + list(zip(op.data, data)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_bloch_operator_is_its_reference_bit_for_bit(monkeypatch, separable,
                                                     nn_hoppings,
                                                     gauged_stencil):
    # the FD stencils of the bench fluxes, with and without a gauge
    # function, and the Peierls fibers and box: the same arrays, dtypes
    # and sums as the first construction
    from fractions import Fraction

    from peierls import direct, effective
    from peierls.direct import DirectDiscretization
    from peierls.effective import _bloch_operator, box_matrix

    calls = []
    for module in (direct, effective):
        monkeypatch.setattr(module, "bloch_operator", lambda *args: (
            calls.append(args) or bloch_operator(*args)))
    for flux, chi in [("0", None), ("1/4", None), ("1/8", None),
                      ("3/4", "harmonic")]:
        gauged_stencil(DirectDiscretization(separable, Fraction(flux), 16),
                       chi).matrix(np.zeros(2))
    for flux in ("1/4", "2/5"):
        _bloch_operator(nn_hoppings, Fraction(flux))
        box_matrix(nn_hoppings, Fraction(flux), 3)
    assert len(calls) == 8
    for args in calls:
        _assert_identical(bloch_operator(*args),
                          _bloch_operator_reference(*args))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16),
       size=st.one_of(st.integers(1, 6), st.just(50_000)),  # int64 keys
       block=st.integers(1, 3), count=st.integers(1, 60),
       reach=st.integers(0, 40), dim=st.integers(1, 3))
def test_random_bloch_operators_are_their_reference(seed, size, block, count,
                                                    reach, dim):
    # repeated entries, blocks, wide shift ranges and every dimension
    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(0, size, (2, count))
    shifts = rng.integers(-reach, reach + 1, (count, dim))
    entries = (rng.normal(size=(count, block, block))
               + 1j * rng.normal(size=(count, block, block)))
    args = rows, cols, shifts, entries, size
    _assert_identical(bloch_operator(*args), _bloch_operator_reference(*args))
