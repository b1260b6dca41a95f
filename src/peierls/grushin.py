"""Grushin bordering of the fiber operators and the effective block.

The block matrix

    P(xi, lambda) = [[H(xi) - lambda, Phi], [Phi^*, 0]]

with Phi the M x N matrix of trial-family columns is inverted densely; the
lower-right N x N block of the inverse is the effective Hamiltonian
E_minus_plus(xi, lambda).  For a simple band with the section as the single
trial function, E_minus_plus equals lambda - lambda_k(xi) exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import FiberMatrix
from .lattice import BZGrid, DualShell
from .section import BlochSection


class NearSingularError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrialFamily:
    grid: BZGrid
    shell: DualShell
    vectors: np.ndarray  # (n_points, M, N), orthonormal columns per point

    @property
    def n(self) -> int:
        return self.vectors.shape[2]


def trial_from_section(section: BlochSection) -> TrialFamily:
    """N = 1 family wrapping a simple-band section."""
    return TrialFamily(
        grid=section.grid,
        shell=section.shell,
        vectors=section.vectors[:, :, None],
    )


@dataclass(frozen=True)
class GrushinMatrix:
    xi: np.ndarray
    lam: float
    top_left: np.ndarray  # H - lambda, (M, M)
    border: np.ndarray  # Phi, (M, N)

    @property
    def full(self) -> np.ndarray:
        m, n = self.border.shape
        out = np.zeros((m + n, m + n), dtype=complex)
        out[:m, :m] = self.top_left
        out[:m, m:] = self.border
        out[m:, :m] = np.conj(self.border.T)
        return out


@dataclass(frozen=True)
class GrushinInverse:
    e_minus_plus: np.ndarray  # (N, N)
    condition_number: float
    residual: float


def assemble_grushin(
    matrix: FiberMatrix, lam: float, family: TrialFamily, grid_index: int
) -> GrushinMatrix:
    phi = family.vectors[grid_index]
    if phi.shape[0] != matrix.size:
        raise ValueError("trial family and fiber matrix use different shells")
    return GrushinMatrix(
        xi=matrix.xi,
        lam=float(lam),
        top_left=matrix.entries - lam * np.eye(matrix.size),
        border=phi,
    )


def invert_grushin(g: GrushinMatrix, cond_max: float = 1e12) -> GrushinInverse:
    full = g.full
    m = g.top_left.shape[0]
    cond = np.linalg.cond(full)
    if cond > cond_max:
        raise NearSingularError(
            f"Grushin matrix nearly singular (cond {cond:.3e}) at "
            f"xi={g.xi}, lambda={g.lam}"
        )
    inv = np.linalg.inv(full)
    residual = float(
        np.linalg.norm(full @ inv - np.eye(full.shape[0]), ord=2)
    )
    return GrushinInverse(
        e_minus_plus=inv[m:, m:],
        condition_number=float(cond),
        residual=residual,
    )
