import numpy as np
import pytest

from peierls.bloch import BandStructure, assemble_fiber_matrix, compute_bands
from peierls.lattice import DualShell, InputError, bz_grid, dual_shell
from peierls.section import (
    TransportStepError,
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


def test_transport_builds_its_permutations_once_per_shell(separable, lat2,
                                                          monkeypatch):
    bands = compute_bands(separable, bz_grid(lat2, 8), dual_shell(lat2, 4.0),
                          1, 0)
    first = transport_section(bands)
    calls = []
    index_of = DualShell.index_of

    def counting(self, coeffs):
        calls.append(1)
        return index_of(self, coeffs)

    monkeypatch.setattr(DualShell, "index_of", counting)
    again = transport_section(bands)
    assert calls == []
    assert np.array_equal(again.vectors, first.vectors)


def test_transport_section_requires_vectors_and_even_grid(mathieu, lat1):
    grid = bz_grid(lat1, 16)
    shell = dual_shell(lat1, 6.0)
    bands = compute_bands(mathieu, grid, shell, 2)
    with pytest.raises(InputError, match="eigenvectors"):
        transport_section(bands)
    odd = compute_bands(mathieu, bz_grid(lat1, 15), shell, 2, 0)
    with pytest.raises(InputError, match="even"):
        transport_section(odd)


def test_section_d1_properties(mathieu, mathieu_bands):
    sec = transport_section(mathieu_bands)
    shell = mathieu_bands.shell
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
    sec = transport_section(mathieu_bands)
    res = sec.grid.resolution
    s1 = shift_permutation(mathieu_bands.shell, [1])
    steps = [
        np.linalg.norm(sec.vectors[i + 1] - sec.vectors[i]) for i in range(res - 1)
    ]
    edge = apply_permutation(sec.vectors[0], s1)  # value at t = +1/2
    wrap = np.linalg.norm(edge - sec.vectors[res - 1])
    assert wrap < 3.0 * max(steps)
    assert abs(np.linalg.norm(edge) - 1.0) < 1e-8


def test_section_d2_properties(separable, separable_bands):
    sec = transport_section(separable_bands)
    res = sec.grid.resolution
    shell = separable_bands.shell
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
    sec = transport_section(separable_bands)
    res = sec.grid.resolution
    vecs = sec.vectors.reshape(res, res, -1)
    for axis in (0, 1):
        steps = np.linalg.norm(np.diff(vecs, axis=axis), axis=-1)
        assert steps.max() < 0.5  # no branch flips between neighbors


@pytest.mark.parametrize("lattice", ["lat1", "lat2"])
def test_transport_aborts_between_orthogonal_neighbours(lattice, request):
    """Neighbouring grid points carry distinct plane waves, so every
    projection of the transport is 0 and the first step aborts."""
    lat = request.getfixturevalue(lattice)
    grid = bz_grid(lat, 4)
    shell = dual_shell(lat, 5.0)
    n_points = grid.resolution ** grid.dim
    assert shell.size >= n_points
    vectors = np.eye(shell.size, dtype=complex)[:n_points]
    bands = BandStructure(grid=grid, shell=shell, bands=np.zeros((n_points, 1)),
                          vectors=vectors, solved=n_points)
    with pytest.raises(TransportStepError, match="< 1/2"):
        transport_section(bands)


def _project(target, prev):
    amp = np.vdot(target, prev)
    assert abs(amp) >= 0.5
    out = target * amp
    return out / np.linalg.norm(out)


def _reference_section(bands):
    """The section built one point at a time: the axis (t1, 0) as a line,
    then each column in t2 from the axis, kappa' aligned from t1 = 0."""
    res, d, shell = bands.grid.resolution, bands.grid.dim, bands.shell
    i0, coords = res // 2, bands.grid.axis_coords
    neg = negation_permutation(shell)
    vecs = bands.vectors.reshape((res,) * d + (-1,))
    perm = [shift_permutation(shell, n) for n in np.eye(d, dtype=int)]
    unperm = [shift_permutation(shell, -n) for n in np.eye(d, dtype=int)]

    def line(vec_at, seed, ax):
        psi = {i0: seed}
        for i in range(i0 + 1, res):
            psi[i] = _project(vec_at(i), psi[i - 1])
        half = _project(apply_permutation(vec_at(0), perm[ax]), psi[res - 1])
        return psi, half

    def finish(psi, half, kappa, ax):
        phi = {i: np.exp(1j * kappa * coords[i]) * psi[i]
               for i in range(i0, res)}
        phi[0] = apply_permutation(np.exp(0.5j * kappa) * half, unperm[ax])
        return phi

    v = vecs[(i0,) * d]
    seed = np.exp(0.5j * np.angle(np.vdot(v, conj_reflect(v, neg)))) * v
    axis = vecs if d == 1 else vecs[:, i0]
    psi, half = line(lambda i: axis[i], seed, 0)
    bottom = apply_permutation(conj_reflect(half, neg), perm[0])
    kappa = np.angle(np.vdot(half, bottom))
    phi = finish(psi, half, kappa, 0)
    for i in range(1, i0):
        phi[i] = conj_reflect(phi[2 * i0 - i], neg)
    if d == 1:
        return np.stack([phi[i] for i in range(res)]), [kappa]
    cols = [line(lambda i, i1=i1: vecs[i1, i], phi[i1], 1)
            for i1 in range(res)]
    kp = np.zeros(res)
    for i1 in range(res):
        mirror = (apply_permutation(cols[0][1], perm[0]) if i1 == 0
                  else cols[2 * i0 - i1][1])
        bottom = apply_permutation(conj_reflect(mirror, neg), perm[1])
        kp[i1] = np.angle(np.vdot(cols[i1][1], bottom))
    for i1 in list(range(i0 + 1, res)) + list(range(i0 - 1, -1, -1)):
        near = i1 - 1 if i1 > i0 else i1 + 1
        kp[i1] = kp[near] + (kp[i1] - kp[near] + np.pi) % (2 * np.pi) - np.pi
    out = np.zeros((res, res, shell.size), dtype=complex)
    for i1 in range(res):
        for i2, val in finish(*cols[i1], kp[i1], 1).items():
            out[i1, i2] = val
    for i1 in range(res):
        for i2 in range(1, i0):
            src = (apply_permutation(out[0, 2 * i0 - i2], perm[0]) if i1 == 0
                   else out[2 * i0 - i1, 2 * i0 - i2])
            out[i1, i2] = conj_reflect(src, neg)
    return out.reshape(res * res, -1), [kappa, kp]


@pytest.mark.parametrize("fixture", ["mathieu_bands", "separable_bands"])
def test_sweep_matches_point_by_point_transport(fixture, request):
    bands = request.getfixturevalue(fixture)
    sec = transport_section(bands)
    vectors, angles = _reference_section(bands)
    # the batched sums round differently, by a few ulp per step
    assert np.max(np.abs(sec.vectors - vectors)) < 1e-12
    assert abs(sec.phase_log["kappa"] - angles[0]) < 1e-12
    if len(angles) > 1:
        kp = np.asarray(sec.phase_log["kappa_prime"])
        assert np.max(np.abs(kp - angles[1])) < 1e-12
