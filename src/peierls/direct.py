"""Reference solver for the full magnetic Hamiltonian.

Finite differences with Peierls link phases (the gauge-invariant
discretization of Governale and Ungarelli, PRB 58, 7816 (1998)): each
nearest-neighbor hop of the second-order Laplacian stencil carries the
line phase omega_A(x, x') of magnetic.peierls_hops, which keeps the
discrete operator exactly gauge covariant; A is the transversal gauge of
the constant field, plus grad(chi) for a CHI_CATALOG key chi.  One stencil
builds both operators; for the relativistic kind it takes the Hermitian
square root of the kinetic part plus one, a dense matrix, so the
relativistic kind is limited to RELATIVISTIC_MAX_UNKNOWNS unknowns (the
sparse one to MAX_UNKNOWNS).  Only the boundary differs:

  * box mode drops the links that leave the grid on
    [-length/2, length/2)^d (Dirichlet);
  * magnetic_bloch mode closes them over a magnetic cell of q unit cells
    (rational unit-cell flux p/q) with the magnetic-Bloch wrap of
    peierls_hops at momentum k (chi must be periodic over the cell).

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

Window eigenvalues of matrices above DENSE_MAX_UNKNOWNS unknowns are
counted before they are computed.  SuperLU factors M - lo and M - hi with
diagonal pivots only, an LDL^H factorization, and by Sylvester's law of
inertia the negative pivots count the eigenvalues below each edge; their
difference is the exact number in the window.  One shift-invert Arnoldi
run at lo then asks for exactly that many.  A window holding more than an
eighth of the spectrum raises WindowTooWideError before any iteration;
factors that are not LDL^H, or a run that misses part of the count, raise
WindowCoverageError.
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
                       peierls_hops)
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

# Up to this size a dense eigvalsh is cheaper than the inertia-certified
# shift-invert solve.  Dense against sparse with the band-0 window (2 CPUs,
# OpenBLAS with 1 thread): on d=2 stencils of the separable fixture 3.2
# against 4.1 ms at 144 unknowns, 4.1 against 3.3 ms at 169, 8.2 against
# 5.0 ms at 196, 17 against 6.6 ms at 256, 74 against 7.3 ms at 512 (a
# flux-1/2 fiber); on d=1 Mathieu boxes 2.1 against 2.6 ms at 128 and 2.1
# against 1.7 ms at 144.
DENSE_MAX_UNKNOWNS = 144


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
        shape = (self.flux.denominator * n,) + (n,) * (lengths.size - 1)
        return _fd_stencil(self.symbol, self._vector_potential(), lengths / n,
                           shape, k=k)

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
    k=None,
) -> sp.spmatrix:
    """FD matrix on the grid origin + h * i, 0 <= i_ax < shape[ax].

    CSR for the nonrelativistic kind; the relativistic root is dense and
    comes as a BSR matrix of one block.

    The links [x, x + h_ax e_ax] and their phases come from
    magnetic.peierls_hops at k (None: Dirichlet); the reverse links are
    their conjugates, so M is exactly Hermitian.
    """
    total = int(np.prod(shape))
    pos = origin + tensor_grid([np.arange(m) for m in shape]) * h[None, :]

    vvals = symbol.potential.value(pos)
    diag = np.full(total, float(np.sum(2.0 / h**2)), dtype=complex) + vvals

    rows, cols, axis, _, phases = peierls_hops(
        A, shape, h, np.eye(len(shape), dtype=int), origin, k)
    vals = -phases / h[axis] ** 2
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


class WindowTooWideError(ValueError):
    """The window holds more eigenvalues than a sparse solve is for."""


def _shift_factors(M: sp.spmatrix, sigma: float):
    """SuperLU factors of M - sigma with diagonal pivots only.

    M - sigma is Hermitian, so a minimum-degree ordering of its pattern
    (MMD_AT_PLUS_A) with diagonal pivots (SymmetricMode, threshold 0)
    keeps the factors sparse: on the separable fixture's fibers L and U
    hold 30k entries at 1,024 unknowns and 62k at 2,048, against 48k and
    99k in the default column ordering.  A positive threshold pivots off
    the diagonal for many shifts: 52% of 240 band-window shifts on those
    fibers at 0.1 and 86% at 1.0, none at 0, where the inertia equalled
    the dense count for all 240 (80 of them within 1e-8 of an eigenvalue).
    """
    shifted = (M - sigma * sp.identity(M.shape[0], format="csr")).tocsc()
    return spla.splu(shifted, permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.0, options={"SymmetricMode": True})


def _edge_factors(M: sp.spmatrix, edge: float, outward: float):
    """Factors of M - s and the number of eigenvalues of M below s.

    s is edge, or edge + outward when edge is an eigenvalue of M (then
    M - edge is singular and SuperLU raises).  With every pivot on the
    diagonal, P (M - s) P^T = L U with U = D L^H, so by Sylvester's law of
    inertia M - s has as many negative eigenvalues as the real diagonal D
    has negative entries.  Off-diagonal pivots, or a D that is not real,
    break that reading and raise WindowCoverageError.

    Returns (factors, s, count).
    """
    s = edge
    try:
        factors = _shift_factors(M, s)
    except RuntimeError:
        s = edge + outward
        factors = _shift_factors(M, s)
    pivots = factors.U.diagonal()
    # the imaginary parts of D are roundoff: below 1e-9 of the largest
    # pivot on the separable fixture's fibers, shifts on eigenvalues included
    if (not np.array_equal(factors.perm_r, factors.perm_c)
            or np.max(np.abs(pivots.imag)) > 1e-6 * np.max(np.abs(pivots))):
        raise WindowCoverageError(
            f"the factors of M - {s} are not an LDL^H factorization, so "
            "they do not count the eigenvalues below the shift")
    return factors, s, int(np.count_nonzero(pivots.real < 0))


def _window_eigs(M: sp.spmatrix, window) -> np.ndarray:
    """Eigenvalues of the Hermitian matrix intersected with window.

    A matrix of up to DENSE_MAX_UNKNOWNS unknowns, or one stored dense
    (the relativistic root, one BSR block), is diagonalized densely.  A
    larger sparse one is counted first: count = nu(hi) - nu(lo) of its
    eigenvalues lie in [lo, hi), with nu the inertia count of
    _edge_factors; an edge that is an eigenvalue moves outward by 1e-9 of
    the window width.  They are the count largest eigenvalues of
    (M - lo)^-1, which one shift-invert Arnoldi run computes from the
    factors of M - lo.  A run that returns fewer than count of them in the
    window raises WindowCoverageError.  More than size // 8 raise
    WindowTooWideError before any iteration: such a window holds far more
    than the few bands a reference solve resolves, and Arnoldi then costs
    more than a dense solve (128 eigenvalues of a 1,024-unknown fiber of
    the separable fixture: 0.69 s against 0.42 s).
    """
    lo, hi = window
    size = M.shape[0]
    if M.format == "bsr" or size <= DENSE_MAX_UNKNOWNS:
        vals = np.linalg.eigvalsh(M.data[0] if M.format == "bsr"
                                  else M.toarray())
        return vals[(vals >= lo) & (vals <= hi)]
    nudge = 1e-9 * (hi - lo)
    # one factorization alive at a time: the upper edge only counts
    upper, hi_shift, below_hi = _edge_factors(M, hi, nudge)
    del upper
    lower, lo_shift, below_lo = _edge_factors(M, lo, -nudge)
    count = below_hi - below_lo
    if count > size // 8:
        raise WindowTooWideError(
            f"window [{lo}, {hi}] holds {count} of the {size} eigenvalues, "
            f"more than the {size // 8} a sparse solve certifies; narrow "
            "the window")
    if count == 0:
        return np.empty(0)
    inverse = spla.LinearOperator(M.shape, matvec=lower.solve, dtype=M.dtype)
    # a fixed generic start vector makes reruns bit-identical
    v0 = np.random.default_rng(0).standard_normal(size) + 0j
    vals = np.sort(spla.eigsh(M, k=count, sigma=lo_shift, which="LA", v0=v0,
                              OPinv=inverse, return_eigenvectors=False))
    found = np.count_nonzero((vals >= lo_shift - nudge)
                             & (vals <= hi_shift + nudge))
    if found < count:
        raise WindowCoverageError(
            f"window [{lo}, {hi}] holds {count} eigenvalues, but the "
            f"shift-invert solve returned {found} of them")
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
        vals = _window_eigs(disc.box_matrix(), window)
        return SpectrumSet(points=vals, window=window, merge_tol=merge_tol)

    momenta, classes = _fiber_classes(disc, k_resolution)
    solved = [_window_eigs(disc.bloch_matrix(k), window) for k in momenta]
    pts = (np.concatenate([solved[c] for c in classes]) if classes.size
           else np.empty(0))
    return SpectrumSet(points=pts, window=window, merge_tol=merge_tol)
