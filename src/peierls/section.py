"""Smooth, equivariant eigenvector sections of a simple band.

The section is built by stepwise parallel transport of a conjugation-
symmetric seed at xi = 0, followed by a holonomy phase correction that is
distributed linearly across the zone.

Coefficient-space conventions (plane-wave basis indexed by the dual shell):
  * multiplication by exp(-i<gamma*, y>) is the index shift
    (S_n v)[b] = v[b + n], which maps an eigenvector at xi to one at
    xi + gamma*;
  * complex conjugation in position space is (C v)[b] = conj(v[-b]),
    which maps an eigenvector at xi to one at -xi for even symbols.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import BandStructure, conj_reflect, negation_permutation
from .lattice import DualShell


class TransportStepError(RuntimeError):
    """Projection norm dropped below 1/2; the grid is too coarse."""


def shift_permutation(shell: DualShell, n) -> np.ndarray:
    """perm with result[i] = source index of member[i] + n, or -1 if outside."""
    return shell.index_of(shell.members + np.asarray(n, dtype=int))


def apply_permutation(vec: np.ndarray, perm: np.ndarray) -> np.ndarray:
    out = np.zeros_like(vec)
    ok = perm >= 0
    out[ok] = vec[perm[ok]]
    return out


@dataclass(frozen=True)
class BlochSection:
    grid: object  # BZGrid
    shell: DualShell
    band_index: int
    vectors: np.ndarray  # (n_points, M) unit coefficient vectors
    phase_log: dict  # holonomy angles used during transport

def _project_step(target_vec: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """Project prev onto the span of target_vec and renormalize."""
    amp = np.vdot(target_vec, prev)
    if abs(amp) < 0.5:
        raise TransportStepError(
            f"projection norm {abs(amp):.3f} < 1/2; refine the momentum grid"
        )
    out = target_vec * amp
    return out / np.linalg.norm(out)


def _symmetrize_seed(vec: np.ndarray, neg_perm: np.ndarray) -> np.ndarray:
    """Phase-rotate a unit vector so that C v = v (conjugation-fixed seed)."""
    cv = conj_reflect(vec, neg_perm)
    inner = np.vdot(vec, cv)  # = exp(i f) for an eigenvector of C^2 = 1
    f = np.angle(inner)
    w = np.exp(1j * f / 2.0) * vec
    return w


def _band_vector(bands: BandStructure, flat: int, k: int) -> np.ndarray:
    return bands.vectors[flat][:, k]


def transport_section(bands: BandStructure, band_index: int) -> BlochSection:
    """Inductive parallel-transport construction of the section over the grid.

    Requires eigenvectors (keep_vectors=True) and an even grid resolution
    so that xi = 0 is a grid point.
    """
    if bands.vectors is None:
        raise ValueError("transport_section needs stored eigenvectors")
    grid = bands.grid
    res = grid.resolution
    if res % 2:
        raise ValueError("grid resolution must be even")
    d = grid.dim
    k = band_index
    shell = bands.shell
    neg = negation_permutation(shell)
    coords = grid.axis_coords
    i0 = res // 2  # index of coordinate 0

    if d == 1:
        shift1 = shift_permutation(shell, np.array([1]))
        unshift1 = shift_permutation(shell, np.array([-1]))
        phi, kappa = _transport_axis(
            lambda i: _band_vector(bands, i, k),
            res,
            i0,
            coords,
            neg,
            shift1,
            unshift1,
        )
        vectors = np.stack(phi)
        return BlochSection(
            grid=grid,
            shell=shell,
            band_index=k,
            vectors=vectors,
            phase_log={"kappa": float(kappa)},
        )

    # d == 2: build the axis (t1, 0) first, then sweep each column in t2.
    shift1 = shift_permutation(shell, np.array([1, 0]))
    unshift1 = shift_permutation(shell, np.array([-1, 0]))
    shift2 = shift_permutation(shell, np.array([0, 1]))
    unshift2 = shift_permutation(shell, np.array([0, -1]))

    def flat(i1, i2):
        return i1 * res + i2

    base, kappa1 = _transport_axis(
        lambda i1: _band_vector(bands, flat(i1, i0), k),
        res,
        i0,
        coords,
        neg,
        shift1,
        unshift1,
    )

    psi = np.zeros((res, res, shell.size), dtype=complex)
    psi_half = np.zeros((res, shell.size), dtype=complex)
    for i1 in range(res):
        psi[i1, i0] = base[i1]
        for i2 in range(i0 + 1, res):
            psi[i1, i2] = _project_step(
                _band_vector(bands, flat(i1, i2), k), psi[i1, i2 - 1]
            )
        # virtual value at t2 = +1/2 from the equivariant image of the
        # eigenvector at t2 = -1/2
        edge_vec = apply_permutation(_band_vector(bands, flat(i1, 0), k), shift2)
        psi_half[i1] = _project_step(edge_vec, psi[i1, res - 1])

    # holonomy angle kappa'(t1) from the conjugated edge value
    kappa_prime = np.zeros(res)
    for i1 in range(res):
        if i1 == 0:
            mirror_half = apply_permutation(psi_half[0], shift1)
        else:
            mirror_half = psi_half[2 * i0 - i1]
        psi_bottom = conj_reflect(mirror_half, neg)  # psi~(t1, -1/2)
        val = np.vdot(psi_half[i1], apply_permutation(psi_bottom, shift2))
        kappa_prime[i1] = np.angle(val)

    # the angles are defined mod 2*pi; align branches across columns so the
    # phase correction exp(i kappa'(t1) t2) is continuous in t1
    def _wrap(x):
        return (x + np.pi) % (2.0 * np.pi) - np.pi

    for i1 in range(i0 + 1, res):
        kappa_prime[i1] = kappa_prime[i1 - 1] + _wrap(
            kappa_prime[i1] - kappa_prime[i1 - 1]
        )
    for i1 in range(i0 - 1, -1, -1):
        kappa_prime[i1] = kappa_prime[i1 + 1] + _wrap(
            kappa_prime[i1] - kappa_prime[i1 + 1]
        )

    vectors = np.zeros((res * res, shell.size), dtype=complex)
    for i1 in range(res):
        for i2 in range(i0, res):
            vectors[flat(i1, i2)] = (
                np.exp(1j * kappa_prime[i1] * coords[i2]) * psi[i1, i2]
            )
    phi_half = np.exp(1j * kappa_prime * 0.5)[:, None] * psi_half
    for i1 in range(res):
        # t2 = -1/2 row via equivariance
        vectors[flat(i1, 0)] = apply_permutation(phi_half[i1], unshift2)
        for i2 in range(1, i0):
            if i1 == 0:
                src = apply_permutation(vectors[flat(0, 2 * i0 - i2)], shift1)
            else:
                src = vectors[flat(2 * i0 - i1, 2 * i0 - i2)]
            vectors[flat(i1, i2)] = conj_reflect(src, neg)

    return BlochSection(
        grid=grid,
        shell=shell,
        band_index=k,
        vectors=vectors,
        phase_log={
            "kappa": float(kappa1),
            "kappa_prime": kappa_prime.tolist(),
        },
    )


def _transport_axis(vec_at, res, i0, coords, neg, shift1, unshift1):
    """One-dimensional sweep: seed at 0, transport up, correct holonomy."""
    psi = [None] * res
    seed = _symmetrize_seed(vec_at(i0), neg)
    psi[i0] = seed
    for i in range(i0 + 1, res):
        psi[i] = _project_step(vec_at(i), psi[i - 1])
    # virtual psi(+1/2): equivariant image of the eigenvector at -1/2
    edge_vec = apply_permutation(vec_at(0), shift1)
    psi_half = _project_step(edge_vec, psi[res - 1])
    psi_minus_half = conj_reflect(psi_half, neg)
    hol = np.vdot(psi_half, apply_permutation(psi_minus_half, shift1))
    kappa = np.angle(hol)

    phi = [None] * res
    for i in range(i0, res):
        phi[i] = np.exp(1j * kappa * coords[i]) * psi[i]
    phi_half = np.exp(1j * kappa * 0.5) * psi_half
    phi[0] = apply_permutation(phi_half, unshift1)  # t = -1/2 by equivariance
    for i in range(1, i0):
        phi[i] = conj_reflect(phi[2 * i0 - i], neg)
    return phi, kappa
