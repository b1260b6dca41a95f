"""Periodic symbols: potentials in Fourier form and kinetic kinds.

A potential is stored by its Fourier coefficients V_hat(gamma*) indexed by
integer dual coefficients.  A real V has the Hermitian symmetry
V_hat(-gamma*) = conj(V_hat(gamma*)): construction checks it to 1e-10 and
stores each pair symmetrized, (V_hat(gamma*) + conj(V_hat(-gamma*))) / 2
and its conjugate, so that the symmetry holds exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .lattice import InputError, Lattice, tensor_grid

# The least |eta| of the ellipticity sample, and its points per cell axis
# and directions in d=2
ELLIPTIC_RADIUS = 4.0
ELLIPTIC_SAMPLES = 8


def _negated(key: tuple) -> tuple:
    return tuple(-k for k in key)


@dataclass(frozen=True)
class PeriodicPotential:
    lattice: Lattice
    coeffs: dict  # {tuple(int): complex}

    def __post_init__(self):
        clean = {}
        for key, val in self.coeffs.items():
            key = tuple(int(k) for k in np.atleast_1d(key))
            if len(key) != self.lattice.dim:
                raise InputError(f"coefficient index {key} has wrong dimension")
            if not np.isfinite(val):
                raise InputError(f"coefficient at {key} is {val}, not finite")
            if abs(val) > 0:
                clean[key] = complex(val)
        pairs = {}
        for key, val in clean.items():
            other = clean.get(_negated(key), 0.0)
            if abs(np.conj(val) - other) > 1e-10 * max(1.0, abs(val)):
                raise InputError(
                    f"potential is not real: coefficient at {key} breaks "
                    "Hermitian symmetry"
                )
            pairs[key] = (val + np.conj(other)) / 2
        for key, val in list(pairs.items()):
            pairs.setdefault(_negated(key), np.conj(val))
        object.__setattr__(self, "coeffs", {
            key: complex(val) for key, val in pairs.items() if abs(val) > 0})

    def value(self, y) -> np.ndarray:
        """Pointwise V(y) by Fourier resummation, one value per row of y."""
        y = np.atleast_2d(np.asarray(y, dtype=float))
        total = np.zeros(y.shape[0], dtype=complex)
        for key, val in self.coeffs.items():
            gs = self.lattice.dual_point(key)
            total += val * np.exp(1j * (y @ gs))
        return total.real

def zero_potential(lattice: Lattice) -> PeriodicPotential:
    return PeriodicPotential(lattice, {})


def cosine_potential(lattice: Lattice, amplitude: float) -> PeriodicPotential:
    """V(y) = 2*amplitude*cos(<e*_1, y>) (the Mathieu fixture for Gamma=2*pi*Z)."""
    d = lattice.dim
    plus = tuple([1] + [0] * (d - 1))
    minus = tuple([-1] + [0] * (d - 1))
    return PeriodicPotential(lattice, {plus: amplitude, minus: amplitude})


def separable_cosine_2d(lattice: Lattice, amplitude: float) -> PeriodicPotential:
    """V(y) = 2a*cos(<e*_1,y>) + 2a*cos(<e*_2,y>)."""
    if lattice.dim != 2:
        raise InputError("separable_cosine_2d requires d = 2")
    a = amplitude
    return PeriodicPotential(
        lattice, {(1, 0): a, (-1, 0): a, (0, 1): a, (0, -1): a}
    )


POTENTIAL_CATALOG: dict = {
    "zero": zero_potential,
    "cosine": cosine_potential,
    "separable_cosine_2d": separable_cosine_2d,
}


@dataclass(frozen=True)
class Nonrelativistic:
    """p0(y, eta) = |eta|^2 + V(y)."""

    order: ClassVar[int] = 2


@dataclass(frozen=True)
class Relativistic:
    """p0(y, eta) = sqrt(1 + |eta|^2) + V(y)."""

    order: ClassVar[int] = 1


@dataclass(frozen=True)
class PeriodicSymbol:
    kind: Nonrelativistic | Relativistic
    potential: PeriodicPotential

    def __post_init__(self):
        if not isinstance(self.kind, (Nonrelativistic, Relativistic)):
            raise TypeError(
                "symbol kind must be Nonrelativistic or Relativistic, got "
                f"{type(self.kind).__name__}"
            )

    @property
    def lattice(self) -> Lattice:
        return self.potential.lattice

    def kinetic(self, eta) -> np.ndarray:
        """Kinetic part at momenta eta (rows), potential excluded."""
        eta = np.atleast_2d(np.asarray(eta, dtype=float))
        n2 = np.einsum("ij,ij->i", eta, eta)
        if isinstance(self.kind, Nonrelativistic):
            return n2
        return np.sqrt(1.0 + n2)


def evaluate_symbol(symbol: PeriodicSymbol, y, eta) -> np.ndarray:
    """p0(y, eta) over the rows of y and eta, shape (positions, momenta)."""
    d = symbol.lattice.dim
    y = np.asarray(y, dtype=float).reshape(-1, d)
    eta = np.asarray(eta, dtype=float).reshape(-1, d)
    return symbol.potential.value(y)[:, None] + symbol.kinetic(eta)[None, :]


def symbol_ellipticity_check(symbol: PeriodicSymbol):
    """Sample p0(y, eta)/|eta|^m over ELLIPTIC_SAMPLES points per cell axis
    and |eta| >= ELLIPTIC_RADIUS, in ELLIPTIC_SAMPLES directions in d=2.

    Returns (ok, C) with C the smallest sampled ratio; ok is C > 0.
    """
    lat = symbol.lattice
    d = lat.dim
    m = symbol.kind.order
    frac = np.linspace(0.0, 1.0, ELLIPTIC_SAMPLES, endpoint=False)
    ys = tensor_grid([frac] * d) @ lat.basis
    if d == 1:
        dirs = np.array([[1.0], [-1.0]])
    else:
        angles = np.linspace(0.0, 2.0 * np.pi, ELLIPTIC_SAMPLES,
                             endpoint=False)
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    radii = ELLIPTIC_RADIUS * np.array([1.0, 1.5, 2.0, 4.0, 8.0])
    etas = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, d)
    ratios = evaluate_symbol(symbol, ys, etas) / np.repeat(radii**m, len(dirs))
    best = float(ratios.min())
    return bool(best > 0.0), best
