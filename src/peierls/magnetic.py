"""Magnetic geometry: transversal gauge, line phases, Peierls hops.

Every magnetic phase of the package is computed here: line_phase for
links and kernels, hermitian_hops for the hops of a lattice operator on
a grid, each wrapped over the cell with its magnetic-Bloch factor at
k = 0 and closed by its adjoint, BlochOperator for the fibers
H(k) = sum_s C_s exp(i <k, s>) over its cell shifts s (the FD stencil of
direct and the operators of effective), field_for_flux for the field of
a rational unit-cell flux and magnetic_cells for the unit cells of its
magnetic cell.

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
from fractions import Fraction
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .lattice import InputError, Lattice, tensor_grid


@dataclass(frozen=True)
class MagneticField:
    """Constant magnetic 2-form B12 = b12 in d = 2."""

    b12: float


# gauge functions chi for covariance experiments
CHI_CATALOG: dict = {
    "quadratic": lambda x: 0.3 * x[..., 0] * x[..., 1],
    "harmonic": lambda x: np.sin(x[..., 0]) + 0.5 * np.cos(x[..., 1]),
}


def magnetic_cells(flux: Fraction, dim: int) -> int:
    """Unit cells per magnetic cell: q of the exact flux p/q (a Fraction:
    rationality is never detected from floats).  A field is a 2-form, so
    a nonzero flux in d=1 raises InputError (H.5)."""
    if not isinstance(flux, Fraction):
        raise InputError("flux must be an exact Fraction p/q")
    if flux and dim < 2:
        raise InputError(
            f"hypothesis H.5 violated: flux {flux} needs a d=2 lattice; a "
            "magnetic field is a 2-form, so in d=1 the flux must be 0")
    return flux.denominator


def field_for_flux(flux: Fraction, lattice: Lattice) -> MagneticField:
    """Constant field whose unit-cell flux is exactly 2 pi * flux."""
    signed_area = float(np.linalg.det(lattice.basis))
    return MagneticField(b12=2.0 * np.pi * float(flux) / signed_area)


@dataclass(frozen=True)
class VectorPotential:
    """The transversal gauge of the field, plus grad(chi) if chi is given."""

    field: MagneticField
    chi: str | None = None

    def __post_init__(self):
        if self.chi is not None and self.chi not in CHI_CATALOG:
            raise InputError(
                f"gauge function {self.chi!r} is not in the catalog")


def transversal_gauge(field: MagneticField, x) -> np.ndarray:
    """A(x) = (b/2)(-x2, x1) for the constant field b, over rows of x."""
    x = np.asarray(x, dtype=float)
    b = field.b12
    return np.stack([-0.5 * b * x[..., 1], 0.5 * b * x[..., 0]], axis=-1)


def line_phase(A: VectorPotential, x, y) -> np.ndarray:
    """omega_A(x, y) = exp(-i * integral of A along the segment [x, y]).

    Points lie along the last axis; x and y broadcast over the others.  The
    gradient part of A integrates exactly to the endpoint difference of chi.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    b = A.field.b12
    arg = -0.5 * b * (x[..., 0] * y[..., 1] - x[..., 1] * y[..., 0])
    phase = np.exp(1j * arg)
    if A.chi is not None:
        chi = CHI_CATALOG[A.chi]
        phase *= np.exp(-1j * (chi(y) - chi(x)))
    return phase


def hermitian_hops(A: VectorPotential, shape, h, offsets, blocks,
                   origin=0.0):
    """The hops i -> i + o (o a row of offsets) on the grid origin + h * i,
    0 <= i < shape, offset by offset, each over the sites in C order, with
    one (N, N) block per offset, and their adjoints.

    The hop from x to x + h * o carries line_phase(A, x, x + h * o), or 1
    in d = 1, times its block.  Its target i + o = j + shape * n is wrapped
    onto j with the magnetic-Bloch factor of the module docstring at k = 0,
    a = h * shape * n and y = origin + h * j (a gradient gauge chi must be
    periodic over the cell).  Each nonzero offset adds its reverse
    (cols, rows, -n) with the adjoint entry, so with no offset the negative
    of another and a Hermitian block at offset 0 the operator is Hermitian
    by construction.  Returns rows, cols, cell shifts n and phased blocks
    (hops, N, N).
    """
    shape, h = np.asarray(shape), np.asarray(h, dtype=float)
    d = shape.size
    offsets = np.asarray(offsets).reshape(-1, d)
    sites = np.indices(shape).reshape(d, -1).T
    offset, rows = np.divmod(np.arange(len(offsets) * len(sites)), len(sites))
    n, j = np.divmod((offsets[:, None] + sites).reshape(-1, d), shape)
    phases = np.ones(rows.size, dtype=complex)
    if d == 2:
        # rows of 2-D arrays are gathered with take: fancy indexing is slower
        x = origin + h * sites.take(rows, axis=0)
        phases = line_phase(A, x, x + (h * offsets).take(offset, axis=0))
        wrapped = (n[:, 0] != 0) | (n[:, 1] != 0)  # any(axis=1) is slower
        a, y = h * shape * n[wrapped], origin + h * j[wrapped]
        phases[wrapped] *= np.exp(1j * (
            np.einsum("ij,ij->i", transversal_gauge(A.field, a), y)
            + 0.5 * A.field.b12 * a[:, 0] * a[:, 1]))
    cols = np.ravel_multi_index(tuple(j.T), shape)
    entries = phases[:, None, None] * blocks[offset]
    back = np.flatnonzero(offsets.any(axis=1)[offset])
    return (np.concatenate([rows, cols[back]]),
            np.concatenate([cols, rows[back]]),
            np.concatenate([n, -n.take(back, axis=0)]),
            np.concatenate([entries, np.conj(
                entries.take(back, axis=0).transpose(0, 2, 1))]))


@dataclass(frozen=True)
class BlochOperator:
    """The fibers H(k) = sum_s C_s exp(i <k, s>) over cell shifts s: the CSR
    pattern (indptr, indices) of H, the shifts in lexicographic order and,
    per shift, the data indices (at) and values (data) of C_s there.  Both
    views add the terms in the order of the shifts, C_0 among them."""

    indptr: np.ndarray
    indices: np.ndarray
    shifts: np.ndarray  # (J, d) integers
    at: tuple  # J index arrays
    data: tuple  # J value arrays

    def _data(self, kpts) -> np.ndarray:
        """The CSR data of H(k), one column per row k of kpts, summed one
        term at a time: a momenta x entries table would outgrow fibers."""
        kpts = np.asarray(kpts, dtype=float).reshape(-1, self.shifts.shape[1])
        out = np.zeros((self.indices.size, len(kpts)), dtype=complex)
        for shift, at, data in zip(self.shifts, self.at, self.data):
            out[at] += np.exp(1j * (kpts @ shift)) * data[:, None]
        return out

    def matrix(self, k) -> sp.csr_matrix:
        """H(k) as a CSR matrix."""
        size = self.indptr.size - 1
        return sp.csr_matrix((self._data(k)[:, 0], self.indices,
                              self.indptr), shape=(size, size))

    def dense(self, kpts) -> np.ndarray:
        """H(k) at the rows of kpts, shape (K, n, n)."""
        size, data = self.indptr.size - 1, self._data(kpts)
        out = np.zeros((data.shape[1], size * size), dtype=complex)
        out[:, np.repeat(np.arange(size), np.diff(self.indptr)) * size
            + self.indices] = data.T
        return out.reshape(-1, size, size)


def bloch_operator(rows, cols, shifts, entries, size) -> BlochOperator:
    """The BlochOperator of size x size blocks whose entry j, an (N, N)
    array, adds to C_{shifts[j]} at block (rows[j], cols[j]).  Entries of
    equal row, column and shift are summed in their order."""
    n = entries.shape[1]
    size, block = size * n, n * n
    # int32 keys while size^2 fits, and a cell-shift code per hop in the
    # smallest type, which a stable argsort orders by radix: full-length
    # temporaries stay few and small
    itype = np.int32 if size**2 <= np.iinfo(np.int32).max else np.int64
    i = np.arange(n, dtype=itype)
    key = ((rows.astype(itype)[:, None, None] * n + i[:, None]) * size
           + cols.astype(itype)[:, None, None] * n + i).ravel()
    m = int(np.abs(shifts).max())  # shifts in lexicographic order
    code = np.ravel_multi_index(tuple((shifts + m).T),
                                (2 * m + 1,) * shifts.shape[1])
    code = np.repeat(code.astype(np.min_scalar_type(code.max())), block)
    order = np.argsort(key, kind="stable")
    key = key.take(order)  # the pattern, and each entry's data index
    new = np.concatenate(([True], key[1:] != key[:-1]))
    pattern, where = key[new], np.cumsum(new)
    where -= 1
    # the entries by shift, then by data index; equal ones are summed
    by_shift = np.argsort(code.take(order), kind="stable")
    order = order.take(by_shift)
    code, where = code.take(order), where.take(by_shift)
    shift = np.concatenate(([True], code[1:] != code[:-1]))
    first = shift | np.concatenate(([True], where[1:] != where[:-1]))
    starts, dup = np.flatnonzero(first), np.flatnonzero(~first)
    data = entries.reshape(-1)
    summed, at = data.take(order.take(starts)), where.take(starts)
    np.add.at(summed, np.searchsorted(starts, dup, "right") - 1,
              data.take(order.take(dup)))
    bounds = np.flatnonzero(shift.take(starts))
    runs = list(zip(bounds.tolist(), bounds[1:].tolist() + [starts.size]))
    return BlochOperator(  # int32 indices, as scipy's CSR takes them
        np.searchsorted(pattern, np.arange(size + 1) * size).astype(np.int32),
        (pattern % size).astype(np.int32),
        shifts.take(order.take(starts.take(bounds)) // block, axis=0),
        tuple(at[a:b] for a, b in runs), tuple(summed[a:b] for a, b in runs))


@dataclass(frozen=True)
class BoxGrid:
    """Uniform position grid on [-length/2, length/2)^dim."""

    dim: int
    n: int
    length: float

    def __post_init__(self):
        if self.n < 8:
            raise InputError("box grid needs at least 8 points per direction")

    @property
    def spacing(self) -> float:
        return self.length / self.n

    def positions(self) -> np.ndarray:
        axis = -0.5 * self.length + self.spacing * np.arange(self.n)
        return tensor_grid([axis] * self.dim)

    def momenta(self) -> np.ndarray:
        freqs = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.spacing)
        return tensor_grid([freqs] * self.dim)


def quantize_on_grid(
    momentum_function: Callable,
    A: VectorPotential | None,
    grid: BoxGrid,
    potential_function: Callable | None = None,
) -> np.ndarray:
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
    return M


def hermitian_sqrt(matrix: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(matrix)
    if vals[0] < 0:
        if vals[0] < -1e-10:
            raise np.linalg.LinAlgError(
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
        A = VectorPotential(MagneticField(eps * field_b12))
        m_nr = quantize_on_grid(lambda eta: 1.0 + float(eta @ eta), A, grid)
        m_r = quantize_on_grid(
            lambda eta: np.sqrt(1.0 + float(eta @ eta)), A, grid)
        root = hermitian_sqrt(m_nr)
        out[float(eps)] = float(np.linalg.norm(root - m_r, ord=2))
    return out
