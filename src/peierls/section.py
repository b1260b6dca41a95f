"""Smooth, equivariant eigenvector sections of a simple band.

The section is built by one parallel-transport sweep, used for every line
of the grid.  The sweep takes a batch of lines through the zone, each with
its value at t = 0, and projects all lines onto the next grid point
together, stepping up to t = +1/2: the virtual value there is projected
from the equivariant image S_n v(-1/2) of the eigenvector at the -1/2 edge.
The holonomy angle kappa of each line compares that value with the
conjugate of the +1/2 value of its mirror line; the `reflect` map names the
mirror of every line.  The t >= 0 half is multiplied by exp(i kappa t),
the -1/2 edge is the shifted +1/2 value, and t < 0 is filled by
conjugation from the mirror line.

In d=1 the zone is one line, seeded with the conjugation-fixed eigenvector
at xi = 0, and it is its own mirror.  In d=2 the same sweep runs twice:
for the axis (t1, 0), which gives kappa, and then for the columns in t2,
seeded from the axis, which gives kappa'(t1).  Column t1 mirrors to -t1,
and the -1/2 column to its own S_e1 image.  The angles kappa' are aligned
across columns from the middle column (t1 = 0) outward: an alignment
anchored elsewhere would change exp(i kappa' t2), not only its branch.

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
from .lattice import DualShell, InputError


class TransportStepError(RuntimeError):
    """Projection norm dropped below 1/2; the grid is too coarse."""


def shift_permutation(shell: DualShell, n) -> np.ndarray:
    """perm with result[i] = source index of member[i] + n, or -1 if outside."""
    return shell.permutation(np.eye(shell.lattice.dim, dtype=int), n)


def apply_permutation(vec: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """The permutation applied along the last axis of vec."""
    out = np.zeros_like(vec)
    ok = perm >= 0
    out[..., ok] = vec[..., perm[ok]]
    return out


@dataclass(frozen=True)
class BlochSection:
    grid: object  # BZGrid
    vectors: np.ndarray  # (n_points, M) unit coefficient vectors
    phase_log: dict  # holonomy angles used during transport


def transport_section(bands: BandStructure) -> BlochSection:
    """Inductive parallel-transport construction of the section over the grid.

    Transports the band whose eigenvectors the bands carry (compute_bands'
    vector_band) and requires an even grid resolution, so that xi = 0 is a
    grid point.
    """
    if bands.vectors is None:
        raise InputError("transport_section needs stored eigenvectors")
    grid, shell = bands.grid, bands.shell
    res, d = grid.resolution, grid.dim
    if res % 2:
        raise InputError("grid resolution must be even")
    i0 = res // 2  # index of coordinate 0
    # a view of the band's vectors, (res,) * d + (M,)
    lines = bands.vectors.reshape((res,) * d + (-1,))
    neg = negation_permutation(shell)
    # the conjugation-fixed seed exp(i f / 2) v, with <v, C v> = exp(i f)
    v = lines[(i0,) * d]
    seed = np.exp(0.5j * np.angle(np.vdot(v, conj_reflect(v, neg)))) * v
    e = np.eye(d, dtype=int)
    axis = lines[(slice(None),) + (i0,) * (d - 1)]
    vectors, kappa = _sweep(axis[None], seed[None], grid.axis_coords, shell,
                            e[0], lambda x: x)
    log = {"kappa": float(kappa[0])}
    if d == 2:
        shift1 = shift_permutation(shell, e[0])
        vectors, kappa_prime = _sweep(
            lines, vectors[0], grid.axis_coords, shell, e[1],
            lambda x: np.concatenate([apply_permutation(x[:1], shift1),
                                      x[:0:-1]]))
        log["kappa_prime"] = kappa_prime.tolist()
    return BlochSection(grid=grid, vectors=vectors.reshape(res**d, -1),
                        phase_log=log)


def _sweep(lines, seeds, coords, shell, n, reflect):
    """Transport the lines (C, res, M) from their seeds (C, M) at t = 0.

    Returns the section on the lines, (C, res, M), and the holonomy angle of
    each line, aligned from the middle line outward.  reflect maps an array
    (C, ..., M) of values on the lines to the values on their mirrors.
    """
    res = lines.shape[1]
    i0 = res // 2
    neg = negation_permutation(shell)
    shift = shift_permutation(shell, n)
    out = np.empty(lines.shape, dtype=complex)
    half = np.empty_like(seeds, dtype=complex)  # the value at t = +1/2
    out[:, i0] = seeds
    edge = apply_permutation(lines[:, 0], shift)  # S_n v(-1/2), at +1/2
    for i in range(i0 + 1, res + 1):
        target, step = (lines[:, i], out[:, i]) if i < res else (edge, half)
        amp = np.vecdot(target, out[:, i - 1])
        low = np.abs(amp).min()
        if low < 0.5:
            raise TransportStepError(
                f"projection norm {low:.3f} < 1/2; refine the momentum grid")
        np.multiply(target, amp[:, None], out=step)
        step /= np.sqrt(np.vecdot(step, step).real)[:, None]
    # C of the mirror's +1/2 value is the line's value at -1/2
    bottom = apply_permutation(np.conj(reflect(half)[..., neg]), shift)
    kappa = np.angle(np.vecdot(half, bottom))
    mid = kappa.size // 2
    kappa[mid:] = np.unwrap(kappa[mid:])
    kappa[mid::-1] = np.unwrap(kappa[mid::-1])
    out[:, i0:] *= np.exp(1j * kappa[:, None] * coords[i0:])[..., None]
    out[:, 0] = apply_permutation(np.exp(0.5j * kappa)[:, None] * half,
                                  shift_permutation(shell, -n))
    # t = -i / res takes C of the mirror line's value at +i / res
    np.conj(reflect(out[:, :i0:-1])[..., neg], out=out[:, 1:i0])
    return out, kappa
