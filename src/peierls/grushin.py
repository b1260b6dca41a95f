"""Grushin bordering of the fiber operators and the effective block.

The block matrix

    P(xi, lambda) = [[H(xi) - lambda, Phi], [Phi^*, 0]]

with Phi the M x N matrix of trial-family columns is inverted densely; the
lower-right N x N block of the inverse is the effective Hamiltonian
E_minus_plus(xi, lambda).  For a simple band with the section as the single
trial function, E_minus_plus equals lambda - lambda_k(xi) exactly.

A stack of samples (xi_s, lambda_s) is one GrushinMatrix with a leading
sample axis, inverted by one batched call: numpy's batched cond, inv,
matmul and Frobenius norm give each matrix of the stack the bits of its
own call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import FiberMatrix
from .lattice import InputError
from .section import BlochSection


COND_MAX = 1e12


class NearSingularError(RuntimeError):
    pass


def trial_from_section(section: BlochSection) -> np.ndarray:
    """The N = 1 trial family of a simple-band section: its orthonormal
    columns per grid point, shape (n_points, M, N)."""
    return section.vectors[:, :, None]


@dataclass(frozen=True)
class GrushinMatrix:
    """One sample, or a stack of S samples along a leading axis."""

    xi: np.ndarray  # (d,) or (S, d)
    lam: float | np.ndarray  # a float or (S,)
    top_left: np.ndarray  # H - lambda, (M, M) or (S, M, M)
    border: np.ndarray  # Phi, (M, N) or (S, M, N)

    @property
    def full(self) -> np.ndarray:
        *stack, m, n = self.border.shape
        out = np.zeros((*stack, m + n, m + n), dtype=complex)
        out[..., :m, :m] = self.top_left
        out[..., :m, m:] = self.border
        out[..., m:, :m] = np.conj(np.swapaxes(self.border, -1, -2))
        return out


@dataclass(frozen=True)
class GrushinInverse:
    e_minus_plus: np.ndarray  # (N, N) or (S, N, N)
    condition_number: float  # the largest of the stack
    residual: float  # the largest Frobenius norm of P P^-1 - 1 of the stack


def assemble_grushin(
    matrix: FiberMatrix, lam, family: np.ndarray, grid_index
) -> GrushinMatrix:
    """P(xi, lambda) at one grid index and lambda, or at a stack of them:
    grid_index and lam of shape (S,) with matrix.entries (S, M, M); family
    is the (n_points, M, N) trial columns of trial_from_section."""
    phi = family[grid_index]
    if phi.shape[-2] != matrix.size:
        raise InputError("trial family and fiber matrix use different shells")
    lam = np.asarray(lam, dtype=float)
    return GrushinMatrix(
        xi=matrix.xi,
        lam=float(lam) if lam.ndim == 0 else lam,
        top_left=matrix.entries - lam[..., None, None] * np.eye(matrix.size),
        border=phi,
    )


def invert_grushin(g: GrushinMatrix) -> GrushinInverse:
    """The inverse's effective block; a sample whose condition number
    exceeds COND_MAX raises NearSingularError naming the first such one."""
    full = g.full
    m = g.top_left.shape[-1]
    cond = np.linalg.cond(full)
    bad = np.flatnonzero(cond > COND_MAX)
    if bad.size:
        s = bad[0]
        raise NearSingularError(
            f"Grushin matrix nearly singular (cond {np.ravel(cond)[s]:.3e}) "
            f"at xi={np.reshape(g.xi, (-1, g.xi.shape[-1]))[s]}, "
            f"lambda={float(np.ravel(g.lam)[s])}"
        )
    inv = np.linalg.inv(full)
    # Frobenius, an upper bound of the 2-norm that takes no SVD beside cond's
    residual = np.linalg.norm(full @ inv - np.eye(full.shape[-1]),
                              axis=(-2, -1))
    return GrushinInverse(
        e_minus_plus=inv[..., m:, m:],
        condition_number=float(np.max(cond)),
        residual=float(np.max(residual)),
    )
