"""Magnetic geometry: transversal gauge, line phases, fluxes, quantization.

Every magnetic phase of the package is computed here: line_phase for
links and kernels, transversal_gauge for magnetic-Bloch wraps.

Conventions (d = 2 throughout unless noted):
  * constant field B12 = b, B21 = -b; transversal gauge A(x) = (b/2)(-x2, x1);
  * line phase omega_A(x, y) = exp(-i * integral of A over [x, y]); for the
    constant field this is exp(-i (b/2) (x1 y2 - x2 y1));
  * a gauge change A -> A + grad(chi) takes chi from CHI_CATALOG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lattice import tensor_grid


class UnsupportedGaugeError(ValueError):
    pass


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_GL01_NODES = 0.5 * (_GL_NODES + 1.0)
_GL01_WEIGHTS = 0.5 * _GL_WEIGHTS


FIELD_CATALOG: dict = {
    # smooth B12(x) profiles, keyed by name; each maps (x, b) -> B12(x)
    "cos_x1": lambda x, b: b * np.cos(x[..., 0]),
    "gaussian": lambda x, b: b * np.exp(-0.5 * (x[..., 0] ** 2 + x[..., 1] ** 2)),
}


@dataclass(frozen=True)
class MagneticField:
    """Constant or smooth magnetic 2-form in d = 2, scaled by epsilon."""

    b12: float
    epsilon: float = 1.0
    kind: str = "constant"  # "constant" or a FIELD_CATALOG key

    def __post_init__(self):
        if self.kind != "constant" and self.kind not in FIELD_CATALOG:
            raise ValueError(f"unknown field profile {self.kind!r}")

    @property
    def strength(self) -> float:
        """Total constant-field strength epsilon * b12."""
        if self.kind != "constant":
            raise ValueError("strength is defined for constant fields only")
        return self.epsilon * self.b12

    def b12_at(self, x) -> np.ndarray:
        if self.kind == "constant":
            return self.epsilon * self.b12 * np.ones(np.shape(x)[:-1])
        return self.epsilon * FIELD_CATALOG[self.kind](np.asarray(x), self.b12)

# gauge functions chi for covariance experiments; value and gradient
CHI_CATALOG: dict = {
    "quadratic": (
        lambda x: 0.3 * x[..., 0] * x[..., 1],
        lambda x: np.stack(
            [0.3 * x[..., 1], 0.3 * x[..., 0]], axis=-1
        ),
    ),
    "harmonic": (
        lambda x: np.sin(x[..., 0]) + 0.5 * np.cos(x[..., 1]),
        lambda x: np.stack(
            [np.cos(x[..., 0]), -0.5 * np.sin(x[..., 1])], axis=-1
        ),
    ),
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

    @property
    def is_linear(self) -> bool:
        return self.field.kind == "constant" and self.gauge == "transversal"

    def value(self, x) -> np.ndarray:
        a = transversal_gauge(self.field, x)
        if self.gauge == "transversal_plus_gradient":
            a = a + CHI_CATALOG[self.chi][1](np.asarray(x, dtype=float))
        return a

    def chi_value(self, x) -> np.ndarray:
        if self.gauge != "transversal_plus_gradient":
            return np.zeros(np.shape(x)[:-1])
        return CHI_CATALOG[self.chi][0](np.asarray(x, dtype=float))


def transversal_gauge(field: MagneticField, x) -> np.ndarray:
    """A_j(x) = -sum_k x_k * int_0^1 B_jk(s x) s ds (vectorized over rows)."""
    x = np.asarray(x, dtype=float)
    if field.kind == "constant":
        b = field.strength
        a1 = -0.5 * b * x[..., 1]
        a2 = 0.5 * b * x[..., 0]
        return np.stack([a1, a2], axis=-1)
    # smooth field: Gauss quadrature of int_0^1 B12(s x) s ds
    integral = np.zeros(np.shape(x)[:-1])
    for s, w in zip(_GL01_NODES, _GL01_WEIGHTS):
        integral = integral + w * s * field.b12_at(s * x)
    a1 = -x[..., 1] * integral
    a2 = x[..., 0] * integral
    return np.stack([a1, a2], axis=-1)


def line_phase(A: VectorPotential, x, y) -> np.ndarray:
    """omega_A(x, y) = exp(-i * integral of A along the segment [x, y]).

    Points lie along the last axis; x and y broadcast over the others.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if A.is_linear:
        b = A.field.strength
        arg = -0.5 * b * (x[..., 0] * y[..., 1] - x[..., 1] * y[..., 0])
        return np.exp(1j * arg)
    if A.gauge == "transversal_plus_gradient":
        # gradient part integrates exactly to the endpoint difference
        base = VectorPotential(A.field, "transversal")
        return line_phase(base, x, y) * np.exp(
            -1j * (A.chi_value(y) - A.chi_value(x))
        )
    diff = y - x
    integral = 0.0
    for s, w in zip(_GL01_NODES, _GL01_WEIGHTS):
        integral = integral + w * A.value(x + s * diff)
    arg = -np.einsum("...i,...i->...", diff, integral)
    return np.exp(1j * arg)


def triangle_flux(field: MagneticField, x, y, z) -> float:
    """Flux of the field through the oriented triangle with vertices x, y, z."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if field.kind == "constant":
        area = 0.5 * (
            (y[0] - x[0]) * (z[1] - x[1]) - (y[1] - x[1]) * (z[0] - x[0])
        )
        return float(field.strength * area)
    # tensor Gauss quadrature over the reference triangle (Duffy collapse)
    total = 0.0
    jac2 = (y[0] - x[0]) * (z[1] - x[1]) - (y[1] - x[1]) * (z[0] - x[0])
    for u, wu in zip(_GL01_NODES, _GL01_WEIGHTS):
        for v, wv in zip(_GL01_NODES, _GL01_WEIGHTS):
            # map square -> triangle: p = x + u(y-x) + u*v(z-y)
            p = x + u * (y - x) + u * v * (z - y)
            total += wu * wv * u * field.b12_at(p[None, :])[0]
    return float(total * jac2)


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
