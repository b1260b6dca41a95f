"""Reference solver for the full magnetic Hamiltonian.

Finite differences with Peierls link phases (the gauge-invariant
discretization of Governale and Ungarelli, PRB 58, 7816 (1998)): each
nearest-neighbor hop of the second-order Laplacian stencil carries the
line phase omega_A(x, x') of magnetic.line_phase, which keeps the discrete
operator exactly gauge covariant; A is the transversal gauge of the
constant field, plus grad(chi) for a CHI_CATALOG key chi.  One stencil
builds both operators; for the relativistic kind it takes the Hermitian
square root of the kinetic part plus one, a dense matrix, so the
relativistic kind is limited to RELATIVISTIC_MAX_UNKNOWNS unknowns (the
sparse one to MAX_UNKNOWNS).  Only the boundary differs:

  * box mode drops the links that leave the grid on
    [-length/2, length/2)^d (Dirichlet);
  * magnetic_bloch mode closes them over a magnetic cell of q unit cells
    (rational unit-cell flux p/q) with the magnetic-Bloch condition

        u(y + a) = exp(i k_a) exp(i <A(a), y>) u(y)

    for the magnetic-cell vectors a, A(a) in the transversal gauge (chi
    must be periodic over the cell).

In magnetic_bloch mode the field must be the one whose unit-cell flux is
2 pi p/q, or the link phases and the cell wrap describe different
operators.  Lattices must be rectangular (diagonal basis) in the
finite-difference modes.

The magnetic translation by one unit cell along axis 1 commutes with the
operator and shifts k2 by 2 pi p/q, so in d=2 the fibers at k and
k + (0, 2 pi/q) are unitarily equivalent (Zak, Phys. Rev. 134, A1602
(1964)).  direct_spectrum therefore solves one fiber per class of the
momentum grid under that shift and uses its eigenvalues for every point
of the class.

Window eigenvalues of matrices above DENSE_MAX_UNKNOWNS unknowns come
from shift-invert Lanczos at the window centre, with M - sigma factored
once by SuperLU in a symmetric fill-reducing ordering and a coverage
certificate: the farthest returned eigenvalue must lie outside the
window, else the batch grows.  A window the certificate cannot cover
raises WindowCoverageError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .bloch import compute_bands, point_group
from .lattice import (GridTooLargeError, Lattice, bz_grid, dual_shell,
                      tensor_grid)
from .magnetic import (MagneticField, VectorPotential, hermitian_sqrt,
                       line_phase, transversal_gauge)
from .spectra import SpectrumSet
from .symbols import PeriodicSymbol, Relativistic


MODES = ("zero_field_bloch", "magnetic_bloch", "box")

# The relativistic root is a dense complex matrix.  A 45^2 box (2,025
# unknowns) takes 21 s and 0.38 GB peak (its eigh alone 19 s at 2,048;
# 2 CPUs, OpenBLAS with 1 thread); the limit admits a magnetic cell of
# q = 8 unit cells at 16 points per cell.
RELATIVISTIC_MAX_UNKNOWNS = 2048

# A sparse separable-fixture fiber and its window solve, as above: 4,096
# unknowns (q = 16) 0.14 s; 16,384 (q = 64) 3.3 s, 0.15 GB; 32,768
# (q = 128) 30 s, 0.37 GB, as the window's q eigenvalues grow the basis.
MAX_UNKNOWNS = 2**15

# Up to this size a dense eigvalsh is cheaper than the certified
# shift-invert solve.  Both on d=2 stencils of the separable fixture with
# the band-0 window (2 CPUs, OpenBLAS with 1 thread): 6.8 against 7.1 ms
# at 196 unknowns, 9.9 against 7.0 ms at 225, 14 against 7.6 ms at 256,
# 66 against 6.7 ms at 512 (a flux-1/2 fiber), 555 against 17 ms at 1,024.
DENSE_MAX_UNKNOWNS = 200


class NonRectangularLatticeError(ValueError):
    pass


class GridTooCoarseError(ValueError):
    pass


def _cell_lengths(lattice: Lattice) -> np.ndarray:
    basis = lattice.basis
    if not np.allclose(basis, np.diag(np.diag(basis))):
        raise NonRectangularLatticeError(
            "finite-difference modes require a rectangular lattice"
        )
    return np.diag(basis).copy()


@dataclass(frozen=True)
class DirectDiscretization:
    symbol: PeriodicSymbol
    field: MagneticField | None
    mode: str  # "zero_field_bloch" | "magnetic_bloch" | "box"
    flux: Fraction = Fraction(0)
    points_per_cell: int = 16
    box_size: float = 0.0
    box_points: int = 0
    chi: str | None = None  # CHI_CATALOG gauge function, A -> A + grad(chi)

    def _vector_potential(self) -> VectorPotential:
        field = self.field if self.field is not None else MagneticField(0.0)
        gauge = "transversal" if self.chi is None else "transversal_plus_gradient"
        return VectorPotential(field, gauge, self.chi)

    def bloch_matrix(self, k) -> sp.spmatrix:
        """FD matrix over q unit cells (stacked along axis 1) at momentum k."""
        if self.mode != "magnetic_bloch":
            raise ValueError("bloch_matrix is defined in magnetic_bloch mode")
        lengths = _cell_lengths(self.symbol.lattice)
        n = self.points_per_cell
        reps = np.ones(lengths.size, dtype=int)
        reps[0] = self.flux.denominator
        wrap = (np.asarray(k, dtype=float), np.diag(lengths * reps))
        return _fd_stencil(self.symbol, self._vector_potential(), lengths / n,
                           tuple(reps * n), wrap=wrap)

    def box_matrix(self) -> sp.spmatrix:
        """Dirichlet FD matrix on [-box_size/2, box_size/2)^d."""
        if self.mode != "box":
            raise ValueError("box_matrix is defined in box mode")
        n = self.box_points
        if n < 16:
            raise GridTooCoarseError(f"box_points {n}: need at least 16")
        d = self.symbol.lattice.dim
        return _fd_stencil(self.symbol, self._vector_potential(),
                           np.full(d, self.box_size / n), (n,) * d,
                           origin=-0.5 * self.box_size)


def assemble_direct(
    symbol: PeriodicSymbol,
    field: MagneticField | None,
    mode: str,
    flux: Fraction = Fraction(0),
    points_per_cell: int = 16,
    box_size: float = 0.0,
    box_points: int = 0,
    chi: str | None = None,
) -> DirectDiscretization:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode != "zero_field_bloch":
        if not isinstance(flux, Fraction):
            raise ValueError("flux must be an exact Fraction")
        if points_per_cell < 16 and mode == "magnetic_bloch":
            raise GridTooCoarseError(
                f"points_per_cell {points_per_cell}: need at least 16")
        _cell_lengths(symbol.lattice)
        d = symbol.lattice.dim
        unknowns = (box_points**d if mode == "box"
                    else flux.denominator * points_per_cell**d)
        limit = (RELATIVISTIC_MAX_UNKNOWNS
                 if isinstance(symbol.kind, Relativistic) else MAX_UNKNOWNS)
        if unknowns > limit:
            raise GridTooLargeError(
                f"the finite-difference operator has {unknowns} unknowns, "
                f"more than the {type(symbol.kind).__name__} limit {limit}")
    return DirectDiscretization(
        symbol=symbol, field=field, mode=mode, flux=flux,
        points_per_cell=points_per_cell, box_size=box_size,
        box_points=box_points, chi=chi,
    )


def _fd_stencil(
    symbol: PeriodicSymbol,
    A: VectorPotential,
    h: np.ndarray,
    shape: tuple,
    origin: float = 0.0,
    wrap=None,
) -> sp.spmatrix:
    """FD matrix on the grid origin + h * i, 0 <= i_ax < shape[ax].

    CSR for the nonrelativistic kind; the relativistic root is dense and
    comes as a BSR matrix of one block.

    In d=2 the link [x, x + h_ax e_ax] carries the line phase
    omega_A(x, x + h_ax e_ax); in d=1 there is no field.  wrap=None drops
    the links that leave the grid (Dirichlet).  wrap=(k, cell_vecs) closes
    each of them with the magnetic-Bloch phase of the cell vector
    cell_vecs[ax] at momentum k; a gradient gauge chi of A must then be
    periodic over the cell.
    """
    d = len(shape)
    total = int(np.prod(shape))
    idx = np.arange(total).reshape(shape)
    coords = tensor_grid([np.arange(m) for m in shape])
    pos = origin + coords * h[None, :]

    vvals = symbol.potential.value(pos)
    diag = np.full(total, float(np.sum(2.0 / h**2)), dtype=complex) + vvals

    rows, cols, vals = [], [], []
    for ax in range(d):
        nb = coords.copy()
        nb[:, ax] += 1
        wrapped = nb[:, ax] == shape[ax]
        if wrap is None:
            src = np.flatnonzero(~wrapped)
        else:
            src = np.arange(total)
        nb[wrapped, ax] = 0
        target = idx[tuple(nb[src].T)]
        x = pos[src]
        link = (line_phase(A, x, x + h[ax] * np.eye(d)[ax]) if d == 2
                else np.ones(src.size, dtype=complex))
        hop = -link / h[ax] ** 2
        if wrap is not None and np.any(wrapped):
            k, cell_vecs = wrap
            y = pos[wrapped].copy()
            y[:, ax] = 0.0
            # magnetic-Bloch wrap: u(y + a) = e^{ik_a} e^{i<A(a), y>} u(y)
            shift = (y @ transversal_gauge(A.field, cell_vecs[ax]) if d == 2
                     else 0.0)
            hop[wrapped] *= np.exp(1j * (k[ax] + shift))
        rows.append(src)
        cols.append(target)
        vals.append(hop)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    M = sp.coo_matrix(
        (np.concatenate([vals, np.conj(vals), diag]),
         (np.concatenate([rows, cols, np.arange(total)]),
          np.concatenate([cols, rows, np.arange(total)]))),
        shape=(total, total),
    ).tocsr()
    if isinstance(symbol.kind, Relativistic):
        dense = M.toarray()
        on_diag = np.diag_indices(total)
        dense[on_diag] -= vvals
        dense[on_diag] += 1.0
        root = hermitian_sqrt(dense)
        root[on_diag] += vvals
        # dense: one block, which _window_eigs hands to eigvalsh as is
        return sp.bsr_matrix((root[None], [0], [0, 1]), shape=(total, total))
    return M


class WindowCoverageError(RuntimeError):
    """The eigensolver could not certify that it found the whole window."""


def _shift_factors(M: sp.spmatrix, sigma: float):
    """SuperLU factors of M - sigma in a symmetric fill-reducing ordering.

    M - sigma is Hermitian, so a minimum-degree ordering of its pattern
    (MMD_AT_PLUS_A) with diagonal pivots preferred (SymmetricMode) keeps
    the factors sparse: on the separable fixture's fibers the fill falls
    from 48k to 31k entries at 1,024 unknowns and from 99k to 72k at
    2,048, against the default column ordering.
    """
    shifted = (M - sigma * sp.identity(M.shape[0], format="csr")).tocsc()
    return spla.splu(shifted, permc_spec="MMD_AT_PLUS_A",
                     options={"SymmetricMode": True})


def _window_eigs(M: sp.spmatrix, window, n_eigs: int) -> np.ndarray:
    """Eigenvalues of the Hermitian matrix intersected with window.

    A matrix of up to DENSE_MAX_UNKNOWNS unknowns, or one stored dense
    (the relativistic root, one BSR block), is diagonalized densely.
    Larger sparse matrices use shift-invert Lanczos at the window centre
    sigma, with M - sigma factored once (_shift_factors); it returns the
    k eigenvalues nearest sigma.  Once the farthest of them lies beyond
    the window radius max(hi - sigma, sigma - lo), every eigenvalue in the
    window is among them; until then k doubles from n_eigs.
    WindowCoverageError is raised when the certificate still fails at
    k = size // 8: past that Lanczos costs more than a dense solve, and
    the window holds far more than the few bands a reference solve
    resolves.
    """
    lo, hi = window
    size = M.shape[0]
    if M.format == "bsr" or size <= DENSE_MAX_UNKNOWNS:
        vals = np.linalg.eigvalsh(M.data[0] if M.format == "bsr"
                                  else M.toarray())
        return vals[(vals >= lo) & (vals <= hi)]
    k_max = size // 8
    k = min(n_eigs, k_max)
    sigma = 0.5 * (lo + hi)
    try:
        factors = _shift_factors(M, sigma)
    except RuntimeError:
        # sigma is an eigenvalue, so M - sigma has no LU factors: move
        # sigma once, staying inside the window
        sigma = lo + 0.5 * (hi - lo) * (1.0 + 1.0 / np.pi)
        factors = _shift_factors(M, sigma)
    inverse = spla.LinearOperator(M.shape, matvec=factors.solve,
                                  dtype=M.dtype)
    # a fixed generic start vector makes reruns bit-identical
    v0 = np.random.default_rng(0).standard_normal(size) + 0j
    while True:
        vals = spla.eigsh(M, k=k, sigma=sigma, which="LM", v0=v0,
                          OPinv=inverse, return_eigenvectors=False)
        if np.max(np.abs(vals - sigma)) > max(hi - sigma, sigma - lo):
            break
        if k >= k_max:
            raise WindowCoverageError(
                f"window [{lo}, {hi}] holds at least {k} of the {size} "
                "eigenvalues, more than the sparse eigensolver certifies; "
                "narrow the window"
            )
        k = min(2 * k, k_max)
    vals = np.sort(vals)
    return vals[(vals >= lo) & (vals <= hi)]


def _fiber_classes(disc: DirectDiscretization, k_resolution: int):
    """Representative momenta of the fiber classes, and each point's class.

    Fibers of one class have equal spectra.  The grid is k = 2 pi j / r,
    j in 0..r-1 per axis, in C order of (j_1, ..., j_d), with
    r = k_resolution.  In d=2 the fibers at k2 and k2 + 2 pi/q are
    unitarily equivalent, which on the grid identifies j2 with j2'
    exactly when r / gcd(r, q) divides j2 - j2'.  The representatives
    j2 < r / gcd(r, q) are grid points.  In d=1, and at q = 1, every grid
    point is its own class.
    """
    d = disc.symbol.lattice.dim
    j = tensor_grid([np.arange(k_resolution)] * d)
    if d == 2:
        j[:, 1] %= k_resolution // gcd(k_resolution, disc.flux.denominator)
    reps, classes = np.unique(j, axis=0, return_inverse=True)
    return 2.0 * np.pi * reps / k_resolution, classes.ravel()


def distinct_fibers(disc: DirectDiscretization, k_resolution: int,
                    shell_radius: float = 6.0) -> int:
    """Matrices direct_spectrum diagonalizes at this k_resolution."""
    if disc.mode == "box":
        return 1
    if disc.mode == "zero_field_bloch":
        lat = disc.symbol.lattice
        maps = point_group(disc.symbol, dual_shell(lat, shell_radius))[0]
        return np.unique(bz_grid(lat, k_resolution).orbits(maps)[0]).size
    return len(_fiber_classes(disc, k_resolution)[0])


def direct_spectrum(
    disc: DirectDiscretization,
    window,
    merge_tol: float,
    k_resolution: int = 8,
    n_bands: int = 4,
    shell_radius: float = 6.0,
) -> SpectrumSet:
    """sigma(P_eps) within the window.

    magnetic_bloch mode unions finite-difference eigenvalues over a
    uniform magnetic-momentum grid, solving one fiber per class of
    _fiber_classes (r * r / gcd(r, q) fibers in d=2 for r = k_resolution)
    and counting its eigenvalues once for every point of the class, so
    the cloud keeps the size of the full grid; zero_field_bloch reuses the
    plane-wave band solver, which solves one point of each orbit of the
    symbol's point group and time reversal;
    box mode takes the Dirichlet matrix as is.
    """
    if disc.mode == "zero_field_bloch":
        lat = disc.symbol.lattice
        grid = bz_grid(lat, k_resolution)
        shell = dual_shell(lat, shell_radius)
        bands = compute_bands(disc.symbol, grid, shell, n_bands)
        return SpectrumSet(
            points=bands.bands.ravel(), window=window, merge_tol=merge_tol
        )
    if disc.mode == "box":
        vals = _window_eigs(disc.box_matrix(), window, n_eigs=64)
        return SpectrumSet(points=vals, window=window, merge_tol=merge_tol)

    momenta, classes = _fiber_classes(disc, k_resolution)
    # a simple band in the window splits into q subbands: room for their q
    # eigenvalues per fiber and the ones beyond the window that certify it
    n_eigs = max(8, 2 * disc.flux.denominator)
    solved = [_window_eigs(disc.bloch_matrix(k), window, n_eigs=n_eigs)
              for k in momenta]
    pts = (np.concatenate([solved[c] for c in classes]) if classes.size
           else np.empty(0))
    return SpectrumSet(points=pts, window=window, merge_tol=merge_tol)
