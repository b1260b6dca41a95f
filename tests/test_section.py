import numpy as np
import pytest

from peierls.bloch import assemble_fiber_matrix, compute_bands
from peierls.lattice import bz_grid, dual_shell
from peierls.section import (
    apply_permutation,
    conj_reflect,
    negation_permutation,
    shift_permutation,
    transport_section,
)


def _eigen_residual(symbol, xi, shell, vec):
    H = assemble_fiber_matrix(symbol, xi, shell).entries
    lam = float(np.real(np.vdot(vec, H @ vec)))
    return float(np.linalg.norm(H @ vec - lam * vec))


def test_permutation_algebra(lat1):
    shell = dual_shell(lat1, 5.0)
    neg = negation_permutation(shell)
    s1 = shift_permutation(shell, [1])
    sm1 = shift_permutation(shell, [-1])
    rng = np.random.default_rng(7)
    v = rng.normal(size=shell.size) + 1j * rng.normal(size=shell.size)
    # C S_1 = S_{-1} C on vectors supported away from the shell boundary
    v[0] = v[-1] = 0.0
    lhs = conj_reflect(apply_permutation(v, s1), neg)
    rhs = apply_permutation(conj_reflect(v, neg), sm1)
    assert np.allclose(lhs, rhs, atol=1e-14)


def test_transport_section_requires_vectors_and_even_grid(mathieu, lat1):
    grid = bz_grid(lat1, 16)
    shell = dual_shell(lat1, 6.0)
    bands = compute_bands(mathieu, grid, shell, 2)
    with pytest.raises(ValueError, match="eigenvectors"):
        transport_section(bands, 0)
    odd = compute_bands(
        mathieu, bz_grid(lat1, 15), shell, 2, keep_vectors=True
    )
    with pytest.raises(ValueError, match="even"):
        transport_section(odd, 0)


def test_section_d1_properties(mathieu, mathieu_bands):
    sec = transport_section(mathieu_bands, 0)
    shell = sec.shell
    grid = sec.grid
    res = grid.resolution
    pts = grid.points()
    norms = np.linalg.norm(sec.vectors, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-10
    for i in range(res):
        assert _eigen_residual(mathieu, pts[i], shell, sec.vectors[i]) < 1e-8
    # conjugation symmetry phi(-t) = C phi(t)
    neg = negation_permutation(shell)
    for i in range(1, res):
        assert (
            np.linalg.norm(sec.vectors[i] - conj_reflect(sec.vectors[res - i], neg))
            < 1e-8
        )
    # holonomy of the Mathieu ground band
    assert abs(abs(sec.phase_log["kappa"]) - np.pi) < 1e-10


def test_section_d1_zone_edge_continuity(mathieu_bands):
    sec = transport_section(mathieu_bands, 0)
    res = sec.grid.resolution
    s1 = shift_permutation(sec.shell, [1])
    steps = [
        np.linalg.norm(sec.vectors[i + 1] - sec.vectors[i]) for i in range(res - 1)
    ]
    edge = apply_permutation(sec.vectors[0], s1)  # value at t = +1/2
    wrap = np.linalg.norm(edge - sec.vectors[res - 1])
    assert wrap < 3.0 * max(steps)
    assert abs(np.linalg.norm(edge) - 1.0) < 1e-8


def test_section_d2_properties(separable, separable_bands):
    sec = transport_section(separable_bands, 0)
    res = sec.grid.resolution
    shell = sec.shell
    pts = sec.grid.points()
    norms = np.linalg.norm(sec.vectors, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-10
    resid = max(
        _eigen_residual(separable, pts[i], shell, sec.vectors[i])
        for i in range(0, res * res, 7)
    )
    assert resid < 1e-8
    neg = negation_permutation(shell)
    i0 = res // 2
    worst = 0.0
    for i1 in range(1, res):
        for i2 in range(1, res, 5):
            a = sec.vectors[i1 * res + i2]
            b = conj_reflect(sec.vectors[(2 * i0 - i1) * res + (2 * i0 - i2)], neg)
            worst = max(worst, np.linalg.norm(a - b))
    assert worst < 1e-8
    # both holonomy angles of the separable ground band are pi
    assert abs(abs(sec.phase_log["kappa"]) - np.pi) < 1e-8
    kp = np.asarray(sec.phase_log["kappa_prime"])
    assert np.max(np.abs(np.abs(kp) - np.pi)) < 1e-8


def test_section_d2_continuity_in_both_axes(separable_bands):
    sec = transport_section(separable_bands, 0)
    res = sec.grid.resolution
    vecs = sec.vectors.reshape(res, res, -1)
    for axis in (0, 1):
        steps = np.linalg.norm(np.diff(vecs, axis=axis), axis=-1)
        assert steps.max() < 0.5  # no branch flips between neighbors
