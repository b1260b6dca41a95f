"""Period lattices, dual lattices and Brillouin-zone sampling (d = 1 or 2).

The dual basis satisfies <e*_j, e_k> = 2*pi*delta_jk, so the fundamental
dual cell has volume (2*pi)^d / |E|.  The dual cell is centered: fractional
coordinates live in [-1/2, 1/2).  A point group acts on fractional momenta
and dual coefficients alike, as integer maps f -> f M: BZGrid.orbits folds
the grid by it, and DualShell.permutation permutes the shell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

import numpy as np


class InputError(ValueError):
    """An input that the model or a size limit cannot take: a degenerate
    lattice, a grid too coarse, an operator too large, a flux that is not
    exact.  The CLI exits 2 on it; every other error is numeric (exit 3)."""


def tensor_grid(axes) -> np.ndarray:
    """Points of the tensor product of 1-d axes, in C order, shape (n, d)."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def dual_basis(basis: np.ndarray) -> np.ndarray:
    """Return the dual generators, rows e*_j with <e*_j, e_k> = 2*pi*delta_jk."""
    basis = np.atleast_2d(np.asarray(basis, dtype=float))
    d = basis.shape[0]
    if basis.shape != (d, d):
        raise InputError(f"basis must be square, got shape {basis.shape}")
    if not np.all(np.isfinite(basis)):
        raise InputError("lattice basis must be finite")
    det = np.linalg.det(basis)
    if abs(det) < 1e-14 * max(1.0, np.abs(basis).max() ** d):
        raise InputError("lattice basis is singular")
    return 2.0 * np.pi * np.linalg.inv(basis).T


@dataclass(frozen=True)
class Lattice:
    """A Bravais lattice Gamma with its dual Gamma*."""

    basis: np.ndarray  # rows e_j
    dual: np.ndarray = field(init=False)

    def __post_init__(self):
        basis = np.atleast_2d(np.asarray(self.basis, dtype=float))
        if basis.shape[0] not in (1, 2):
            raise InputError("only d in {1, 2} is supported")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "dual", dual_basis(basis))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def dual_point(self, coeffs) -> np.ndarray:
        """Cartesian dual-lattice point for integer coefficients."""
        return np.asarray(coeffs, dtype=float) @ self.dual

@dataclass(frozen=True)
class BZGrid:
    """Uniform tensor grid over the centered dual cell, half-open endpoints."""

    lattice: Lattice
    resolution: int

    def __post_init__(self):
        if self.resolution < 2:
            raise InputError("resolution must be >= 2")

    @property
    def dim(self) -> int:
        return self.lattice.dim

    @property
    def axis_coords(self) -> np.ndarray:
        res = self.resolution
        return -0.5 + np.arange(res) / res

    def coords(self) -> np.ndarray:
        """Fractional coordinates of every grid point, shape (n_points, d)."""
        return tensor_grid([self.axis_coords] * self.dim)

    def points(self) -> np.ndarray:
        """Cartesian momenta, shape (n_points, d)."""
        return self.coords() @ self.lattice.dual

    def index_of_zero(self) -> int:
        """Flat index of the xi = 0 grid point (requires even resolution)."""
        if self.resolution % 2:
            raise InputError("zero is a grid point only for even resolution")
        res, d = self.resolution, self.dim
        return int(np.ravel_multi_index((res // 2,) * d, (res,) * d))

    def orbits(self, maps) -> tuple[np.ndarray, np.ndarray]:
        """Orbits of the grid under a group of integer maps f -> f M.

        Returns source, the lowest flat index in each point's orbit, and
        element, the first map with point == source @ M.  Images are taken
        on the doubled integer coordinates 2j - r; one outside the half-open
        cell (the -1/2 edge under -I) is not used, so no shift enters.
        """
        res, d = self.resolution, self.dim
        twice = 2 * np.indices((res,) * d).reshape(d, -1).T - res
        img = twice @ np.asarray(maps, dtype=int) + res  # 2j' per map, point
        inside = np.all((img >= 0) & (img < 2 * res) & (img % 2 == 0), -1)
        flat = np.where(inside, img // 2 @ res ** np.arange(d)[::-1], res**d)
        source = flat.min(axis=0)
        return source, np.argmax(flat[:, source] == np.arange(res**d), axis=0)


def bz_grid(lattice: Lattice, resolution: int) -> BZGrid:
    return BZGrid(lattice, resolution)


# Grid points times subbands one magnetic momentum grid stands for: each
# point carries at least the q subbands of a band.  Only the fibers at the
# representatives are built, r^d / gcd(r, q) of them in d=2, but the bound
# stays on the grid, so it refuses the same grids: k_resolution 1024 at
# q = 1 in d=2, 256 at q = 16.  At q = 4 the direct reference then solves
# at most 65,536 fibers.
MAX_CLOUD_VALUES = 2**20


def magnetic_momenta(dim: int, q: int, k_resolution: int) -> np.ndarray:
    """The representative momenta of the fiber classes of the magnetic
    momentum grid, one row per fiber to solve.

    The grid is k = 2 pi j / r, j in 0..r-1 per axis, in C order, with
    r = k_resolution.  At unit-cell flux 2 pi p/q the magnetic translation
    by one unit cell along axis 1 commutes with the operator, Peierls or
    finite-difference, and shifts k2 by 2 pi p/q, so in d=2 the fibers at
    k and k + (0, 2 pi/q) are unitarily equivalent (Zak, Phys. Rev. 134,
    A1602 (1964)).  On the grid j2 ~ j2' exactly when m = r / gcd(r, q)
    divides j2 - j2': the representatives are the points with j2 < m, the
    first of each class in C order.  Equivalent fibers have equal
    eigenvalues, so the representatives carry every branch's min and max
    over the grid.  In d=1 the flux is 0 (H.5), q = 1 and every point is
    its own representative.  A grid whose points times q exceed
    MAX_CLOUD_VALUES raises InputError before anything is built.
    """
    points = k_resolution**dim
    if points * q > MAX_CLOUD_VALUES:
        raise InputError(
            f"the magnetic momentum grid of {points} points at q = {q} "
            f"stands for {points * q} values, more than the limit "
            f"{MAX_CLOUD_VALUES}")
    j = np.arange(k_resolution)
    m = k_resolution // gcd(k_resolution, q)
    return 2.0 * np.pi * tensor_grid([j] * (dim - 1) + [j[:m]]) / k_resolution


# Candidate coefficients one dual shell may scan, about 80 bytes each (the
# coefficients, their points and norms, the index table): 2**20 are 84 MB.
# The largest basis a fiber admits (4,096 members, bloch.MAX_BAND_ENTRIES)
# needs a box of 5,300 on the square lattice.
MAX_SHELL_CANDIDATES = 2**20


@dataclass(frozen=True)
class DualShell:
    """Dual-lattice points with |gamma*| <= cutoff (Euclidean radius).

    Members are stored as integer coefficient rows; the shell is closed
    under negation by construction.
    """

    lattice: Lattice
    cutoff: float
    members: np.ndarray = field(init=False)  # (M, d) int

    def __post_init__(self):
        lat = self.lattice
        # bound on coefficients: |n| <= cutoff / (shortest dual height)
        heights = 2.0 * np.pi / np.linalg.norm(lat.basis, axis=1)
        nmax = np.ceil(self.cutoff / heights)
        box = np.prod(2 * nmax + 1)  # in floats, which cannot overflow
        if box > MAX_SHELL_CANDIDATES:
            raise InputError(
                f"the dual shell of cutoff {self.cutoff} scans {box:.0f} "
                f"candidates, more than the limit {MAX_SHELL_CANDIDATES}")
        nmax = nmax.astype(int)
        cand = tensor_grid([np.arange(-m, m + 1) for m in nmax])
        pts = cand @ lat.dual
        keep = np.linalg.norm(pts, axis=1) <= self.cutoff + 1e-12
        members = cand[keep]
        # deterministic order: lexicographic on coefficients
        order = np.lexsort(members.T[::-1])
        object.__setattr__(self, "members", members[order])
        # shell index of every candidate box point, -1 outside the shell;
        # axis j runs over the coefficients -nmax_j..nmax_j
        table = np.full(cand.shape[0], -1)
        table[np.flatnonzero(keep)[order]] = np.arange(order.size)
        object.__setattr__(self, "_box", nmax)
        object.__setattr__(self, "_table", table.reshape(tuple(2 * nmax + 1)))
        object.__setattr__(self, "_perms", {})

    @property
    def size(self) -> int:
        return self.members.shape[0]

    def index_of(self, coeffs) -> np.ndarray:
        """Shell index of each row of integer dual coefficients, -1 outside.

        coeffs has shape (..., d); the result has shape (...).
        """
        box = np.asarray(coeffs, dtype=int) + self._box
        inside = np.all((box >= 0) & (box < self._table.shape), axis=-1)
        out = np.full(box.shape[:-1], -1)
        out[inside] = self._table[tuple(box[inside].T)]
        return out

    def permutation(self, matrix, shift=0) -> np.ndarray:
        """perm with members[perm[i]] == members[i] @ matrix + shift, or -1;
        matrix may be a stack (n, d, d).  Built once per shell, read-only."""
        matrix, shift = np.asarray(matrix, int), np.asarray(shift, int)
        key = (matrix.shape, matrix.tobytes(), shift.tobytes())
        if key not in self._perms:
            perm = self.index_of(self.members @ matrix + shift)
            perm.flags.writeable = False
            self._perms[key] = perm
        return self._perms[key]


def dual_shell(lattice: Lattice, cutoff: float) -> DualShell:
    if cutoff <= 0:
        raise InputError("cutoff must be positive")
    return DualShell(lattice, cutoff)
