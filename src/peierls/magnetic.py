"""Magnetic geometry: transversal gauge, line phases, Peierls hops.

Every magnetic phase of the package is computed here: line_phase for
links and kernels, peierls_hops for the hops of a lattice operator on a
uniform grid (the stencil of direct, the box matrix and magnetic-Bloch
blocks of effective), with their magnetic-Bloch wrap over a cell.

Conventions (d = 2 throughout unless noted):
  * constant field B12 = b, B21 = -b; transversal gauge A(x) = (b/2)(-x2, x1);
  * line phase omega_A(x, y) = exp(-i * integral of A over [x, y]), which
    for the constant field is exp(-i (b/2) (x1 y2 - x2 y1));
  * magnetic-Bloch condition over the cell vector a of integer shift n:
    u(y + a) = exp(i (<k, n> + <A(a), y> + (b/2) a1 a2)) u(y);
  * a gauge change A -> A + grad(chi) takes chi from CHI_CATALOG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lattice import tensor_grid


class UnsupportedGaugeError(ValueError):
    pass


@dataclass(frozen=True)
class MagneticField:
    """Constant magnetic 2-form B12 = epsilon * b12 in d = 2."""

    b12: float
    epsilon: float = 1.0

    @property
    def strength(self) -> float:
        """Total constant-field strength epsilon * b12."""
        return self.epsilon * self.b12


# gauge functions chi for covariance experiments
CHI_CATALOG: dict = {
    "quadratic": lambda x: 0.3 * x[..., 0] * x[..., 1],
    "harmonic": lambda x: np.sin(x[..., 0]) + 0.5 * np.cos(x[..., 1]),
}


@dataclass(frozen=True)
class VectorPotential:
    field: MagneticField
    gauge: str = "transversal"  # or "transversal_plus_gradient"
    chi: str | None = None

    def __post_init__(self):
        if self.gauge not in ("transversal", "transversal_plus_gradient"):
            raise UnsupportedGaugeError(f"unknown gauge {self.gauge!r}")
        if self.gauge == "transversal_plus_gradient" and self.chi not in CHI_CATALOG:
            raise UnsupportedGaugeError("gauge function must come from the catalog")


def transversal_gauge(field: MagneticField, x) -> np.ndarray:
    """A(x) = (b/2)(-x2, x1) for the constant field b, over rows of x."""
    x = np.asarray(x, dtype=float)
    b = field.strength
    return np.stack([-0.5 * b * x[..., 1], 0.5 * b * x[..., 0]], axis=-1)


def line_phase(A: VectorPotential, x, y) -> np.ndarray:
    """omega_A(x, y) = exp(-i * integral of A along the segment [x, y]).

    Points lie along the last axis; x and y broadcast over the others.  The
    gradient part of A integrates exactly to the endpoint difference of chi.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    b = A.field.strength
    arg = -0.5 * b * (x[..., 0] * y[..., 1] - x[..., 1] * y[..., 0])
    phase = np.exp(1j * arg)
    if A.gauge == "transversal_plus_gradient":
        chi = CHI_CATALOG[A.chi]
        phase *= np.exp(-1j * (chi(y) - chi(x)))
    return phase


def peierls_hops(A: VectorPotential, shape, h, offsets, origin=0.0, k=None):
    """The hops i -> i + o (o a row of offsets) on the grid origin + h * i,
    0 <= i < shape, offset by offset, each over the sites in C order.

    The hop from x to x + h * o carries line_phase(A, x, x + h * o), or 1
    in d = 1.  With k None a hop that leaves the grid is dropped
    (Dirichlet); otherwise its target i + o = j + shape * n is wrapped onto
    j with the magnetic-Bloch factor of the module docstring at
    a = h * shape * n and y = origin + h * j (a gradient gauge chi must be
    periodic over the cell).  Returns (rows, cols, offset, n, phases):
    source and target site, row of offsets, cell shift and phase per hop.
    """
    shape, h = np.asarray(shape), np.asarray(h, dtype=float)
    d = shape.size
    offsets = np.asarray(offsets).reshape(-1, d)
    sites = np.indices(shape).reshape(d, -1).T
    x = origin + h * sites
    # one hop per (offset, site), flattened in C order
    n, j = (v.reshape(-1, d)
            for v in np.divmod(offsets[:, None] + sites, shape))
    offset, rows = np.divmod(np.arange(n.shape[0]), sites.shape[0])
    phases = (line_phase(A, x, x + (h * offsets)[:, None]).ravel() if d == 2
              else np.ones(rows.size, dtype=complex))
    wrapped = n.any(axis=1)
    if k is None:
        rows, offset, n, j, phases = (
            v[~wrapped] for v in (rows, offset, n, j, phases))
    else:
        arg = n[wrapped] @ np.asarray(k, dtype=float)
        if d == 2:
            a, y = h * shape * n[wrapped], origin + h * j[wrapped]
            arg += (np.einsum("ij,ij->i", transversal_gauge(A.field, a), y)
                    + 0.5 * A.field.strength * a[:, 0] * a[:, 1])
        phases[wrapped] *= np.exp(1j * arg)
    return rows, np.ravel_multi_index(tuple(j.T), shape), offset, n, phases


@dataclass(frozen=True)
class BoxGrid:
    """Uniform position grid on [-length/2, length/2)^dim."""

    dim: int
    n: int
    length: float

    def __post_init__(self):
        if self.n < 8:
            raise ValueError("box grid needs at least 8 points per direction")

    @property
    def spacing(self) -> float:
        return self.length / self.n

    def positions(self) -> np.ndarray:
        axis = -0.5 * self.length + self.spacing * np.arange(self.n)
        return tensor_grid([axis] * self.dim)

    def momenta(self) -> np.ndarray:
        freqs = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.spacing)
        return tensor_grid([freqs] * self.dim)


@dataclass(frozen=True)
class QuantizedOperator:
    grid: BoxGrid
    matrix: np.ndarray


def quantize_on_grid(
    momentum_function: Callable,
    A: VectorPotential | None,
    grid: BoxGrid,
    potential_function: Callable | None = None,
) -> QuantizedOperator:
    """Finite-grid magnetic Weyl quantization of p(z, eta) = g(eta) + V(z).

    M[x, y] = (1/n^d) sum_eta exp(i<eta, x-y>) omega_A(x, y) g(eta)
              + V(x) delta_{xy}.
    The eta sum is the discrete Fourier kernel of g on the dual grid, so at
    A = 0 the kinetic part is exactly the spectral discretization of g(D);
    the position part enters on the diagonal (its Weyl midpoint collapses
    to x at x = y).
    """
    momenta = grid.momenta()
    pvals = np.asarray(
        [momentum_function(eta) for eta in momenta], dtype=float
    )
    shape = (grid.n,) * grid.dim
    kernel = np.fft.ifftn(pvals.reshape(shape))  # K(m) over offsets mod n
    positions = grid.positions()
    coords = tensor_grid([np.arange(grid.n)] * grid.dim)
    diff_idx = tuple(
        (coords[:, ax][:, None] - coords[:, ax][None, :]) % grid.n
        for ax in range(grid.dim)
    )
    M = kernel[diff_idx]
    if A is not None and grid.dim == 2:  # else no field: every phase is 1
        M *= line_phase(A, positions[:, None], positions[None, :])
    if potential_function is not None:
        M = M + np.diag([potential_function(p) for p in positions])
    return QuantizedOperator(grid=grid, matrix=M)


def hermitian_sqrt(matrix: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(matrix)
    if vals[0] < 0:
        if vals[0] < -1e-10:
            raise ValueError(
                f"matrix not positive semidefinite (min eig {vals[0]:.3e})"
            )
        vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ np.conj(vecs.T)


def relativistic_sqrt_compare(
    field_b12: float, grid: BoxGrid, epsilons
) -> dict:
    """Operator-norm deviation of sqrt(Op(1+|eta|^2)) from Op(<eta>) per epsilon."""
    out = {}
    for eps in epsilons:
        A = VectorPotential(MagneticField(field_b12, eps))
        m_nr = quantize_on_grid(
            lambda eta: 1.0 + float(eta @ eta), A, grid
        ).matrix
        m_r = quantize_on_grid(
            lambda eta: np.sqrt(1.0 + float(eta @ eta)), A, grid
        ).matrix
        root = hermitian_sqrt(m_nr)
        out[float(eps)] = float(np.linalg.norm(root - m_r, ord=2))
    return out
