"""Finite-difference reference solver for the full magnetic Hamiltonian.

Finite differences with Peierls link phases (the gauge-invariant
discretization of Governale and Ungarelli, PRB 58, 7816 (1998)): each
nearest-neighbor hop of the second-order Laplacian stencil carries the
line phase of magnetic.hermitian_hops, which keeps the discrete operator
exactly gauge covariant; A is the transversal gauge of the field of
unit-cell flux 2 pi p/q (magnetic.field_for_flux).  DirectDiscretization
closes the stencil (nonrelativistic kind, up to MAX_UNKNOWNS unknowns,
rectangular lattice) over a magnetic cell of q unit cells as a
magnetic.BlochOperator, the form of the Peierls fibers, built once per
flux; direct_spectrum solves its fibers at lattice.magnetic_momenta.

Window eigenvalues are counted before they are computed.  SuperLU
factors M - lo and M - hi with diagonal pivots only, an LDL^H
factorization, and by Sylvester's law of inertia the negative pivots
count the eigenvalues below each edge; their difference is the exact
number in the window.  One shift-invert Arnoldi run at lo then asks for
exactly that many.  direct_spectrum skips the factors of M - lo when one
count on the zero-field unit cell certifies that no fiber has an
eigenvalue below lo (the diamagnetic inequality, see certified_below;
the count holds for every flux, so a run makes it once); the run then
shifts at hi and asks for the eigenvalues just below it.  A window
holding more than an eighth of the spectrum raises InputError before
any iteration; factors that are not LDL^H, or a run that misses part of
the count, raise WindowCoverageError.

The run stops at the residual KRYLOV_TOL, not at machine precision,
which saves ARPACK an implicit restart.  The counts also place the rest
of the spectrum, so each Ritz value has a certified gap, and by
Kato-Temple an error bound (_kato_temple); a bound above a few ulps of
the window repeats the run at ARPACK's machine-precision stop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .lattice import InputError, Lattice, magnetic_momenta, tensor_grid
from .magnetic import (BlochOperator, VectorPotential, bloch_operator,
                       field_for_flux, hermitian_hops, magnetic_cells)
from .spectra import SpectrumSet
from .symbols import Nonrelativistic, PeriodicSymbol


# A separable-fixture fiber and its window solve, band 0 at a certified
# lower edge (2 CPUs, OpenBLAS with 1 thread; peak RSS of the process):
# 4,096 unknowns (q = 16) 0.07 s; 16,384 (q = 64) 2.0 s, 0.12 GB; 32,768
# (q = 128) 12.6 s, 0.24 GB, as the window's q eigenvalues grow the basis.
MAX_UNKNOWNS = 2**15

MIN_POINTS_PER_CELL = 16  # least FD points per unit cell and axis; the default

# The outward move of a window edge, in units of the window width: one for
# window_eigs and certified_below, whose count at lo must hold for the fibers
EDGE_MOVE = 1e-9

# ARPACK stops the window run once every Ritz residual ||T x - theta x|| is
# at most KRYLOV_TOL max(eps^(2/3), |theta|)
KRYLOV_TOL = 1e-10


def _cell_lengths(lattice: Lattice) -> np.ndarray:
    basis = lattice.basis
    if not np.allclose(basis, np.diag(np.diag(basis))):
        raise InputError(
            "the finite-difference operator needs a rectangular lattice: "
            f"lattice.basis {basis.tolist()} is not diagonal"
        )
    return np.diag(basis).copy()


@dataclass(frozen=True)
class DirectDiscretization:
    """The FD operator of the magnetic cell at rational flux p/q."""

    symbol: PeriodicSymbol
    flux: Fraction  # signed unit-cell flux / 2 pi
    points_per_cell: int

    def __post_init__(self):
        cells = magnetic_cells(self.flux, self.symbol.lattice.dim)
        if self.points_per_cell < MIN_POINTS_PER_CELL:
            raise InputError(f"points_per_cell {self.points_per_cell}: "
                             f"need at least {MIN_POINTS_PER_CELL}")
        if not isinstance(self.symbol.kind, Nonrelativistic):
            kind = type(self.symbol.kind).__name__.lower()
            raise InputError(
                "the finite-difference operator takes the nonrelativistic "
                f"kind only, got symbol.kind {kind!r}")
        _cell_lengths(self.symbol.lattice)
        unknowns = cells * self.points_per_cell**self.symbol.lattice.dim
        if unknowns > MAX_UNKNOWNS:
            raise InputError(
                f"the finite-difference operator has {unknowns} unknowns, "
                f"more than the limit {MAX_UNKNOWNS}")

    @cached_property
    def _stencil(self) -> BlochOperator:
        lattice = self.symbol.lattice
        lengths = _cell_lengths(lattice)
        n = self.points_per_cell
        shape = (self.flux.denominator * n,) + (n,) * (lengths.size - 1)
        A = VectorPotential(field_for_flux(self.flux, lattice))
        return _fd_stencil(self.symbol, A, lengths / n, shape)

    def bloch_matrix(self, k) -> sp.spmatrix:
        """FD matrix over q unit cells, stacked along the first lattice vector
        (array axis 0 of the stencil grid), at momentum k; the stencil is
        built on the first call."""
        return self._stencil.matrix(k)


def _fd_stencil(symbol: PeriodicSymbol, A: VectorPotential, h: np.ndarray,
                shape: tuple) -> BlochOperator:
    """Periodic FD stencil on the grid h * i, 0 <= i_ax < shape[ax]: the
    links [x, x + h_ax e_ax] of entry -1/h_ax^2 and their adjoints from
    magnetic.hermitian_hops, each wrapped over the grid with its factor at
    k = 0, and the diagonal, sum 2/h_ax^2 plus the potential, of shift 0.
    A wrapped link of cell shift n carries exp(i <k, n>) times that factor,
    so matrix(k) is the periodic FD matrix at momentum k."""
    total, d = int(np.prod(shape)), len(shape)
    pos = tensor_grid([np.arange(m) for m in shape]) * h[None, :]
    diag = (np.full(total, float(np.sum(2.0 / h**2)), dtype=complex)
            + symbol.potential.value(pos))
    links = hermitian_hops(A, shape, h, np.eye(d, dtype=int),
                           (-1.0 / h**2)[:, None, None])
    sites = np.arange(total)
    diagonal = (sites, sites, np.zeros((total, d), int), diag[:, None, None])
    return bloch_operator(*map(np.concatenate, zip(links, diagonal)), total)


class WindowCoverageError(RuntimeError):
    """The eigensolver could not certify that it found the whole window."""


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


def _kato_temple(vals: np.ndarray, sigma: float, tol: float,
                 unwanted) -> np.ndarray:
    """Error bounds of the eigenvalues vals of M from a shift-invert run
    at sigma stopped at tol, when unwanted = (low, high) holds the rest of
    the spectrum of T = (M - sigma)^-1.

    ARPACK stops once each Ritz pair (theta_i, x_i) of T, theta_i =
    1/(vals_i - sigma), has ||T x_i - theta_i x_i|| <= rho_i =
    tol max(eps^(2/3), |theta_i|) (Lehoucq, Sorensen and Yang, ARPACK
    Users' Guide, SIAM 1998), so theta_i +- rho_i holds an eigenvalue of
    T.  If these intervals are disjoint and outside unwanted, they hold
    one eigenvalue each, and the others lie at least delta_i from
    theta_i: the least of the distance to unwanted and of
    |theta_i - theta_j| - rho_j.  By Kato-Temple (Parlett, The Symmetric
    Eigenvalue Problem, SIAM 1998, ch. 10-11) the eigenvalue t_i then lies
    within e_i = rho_i^2 / delta_i of theta_i, so sigma + 1/t_i lies
    within e_i / (|theta_i| (|theta_i| - e_i)) of vals_i.  That bounds
    the early stop alone: the roundoff of the factors and solves, some
    eps ||M||, is the same at tol = 0.

    Returns the bounds; all inf unless every delta_i > rho_i and every
    e_i < |theta_i|.
    """
    theta = 1.0 / (vals - sigma)
    rho = tol * np.maximum(np.finfo(float).eps ** (2 / 3), np.abs(theta))
    # theta is monotone in the sorted vals unless some theta_i lies in
    # unwanted, and |theta_i - theta_j| - rho_j grows away from i (tol < 1),
    # so the neighbours of i give its least
    gap = np.abs(np.diff(theta))
    delta = np.minimum.reduce([
        np.maximum(unwanted[0] - theta, theta - unwanted[1]),
        np.append(gap - rho[1:], np.inf),
        np.insert(gap - rho[:-1], 0, np.inf)])
    size, e = np.abs(theta), rho**2 / np.maximum(delta, rho)
    if np.any(delta <= rho) or np.any(e >= size):
        return np.full(vals.size, np.inf)
    return e / (size * (size - e))


def window_eigs(M: sp.spmatrix, window, lower_clear: bool):
    """Eigenvalues of the Hermitian matrix intersected with window, and
    nu(lo), the number below it.

    The matrix is counted first: count = nu(hi) - nu(lo) of its
    eigenvalues lie in [lo, hi), with nu the inertia count of
    _edge_factors; an edge that is an eigenvalue moves outward by
    EDGE_MOVE of the window width.  lower_clear says that the caller has
    certified nu(lo) = 0 (certified_below), and M - lo is not factored:
    the count eigenvalues are then the count smallest of (M - hi)^-1,
    which one shift-invert Arnoldi run computes from the factors of
    M - hi.  Otherwise they are the count largest of (M - lo)^-1, from
    the factors of M - lo: on the FD fibers of criterion 8 (fluxes 1/4,
    1/8 and 1/16, band 0 +- 0.08 and the gap window (-0.5, 0)) the lower
    edge took 152, 304 and 776 Krylov solves at direct k_resolution 2, 4
    and 8 where the upper one took 170, 352 and 867.  A window that
    starts inside band 0 took 21 solves per fiber at either edge at fluxes
    1/4 and 1/8; the lower edge wins on windows that start below the
    band.  On these
    complex fibers eigsh runs ARPACK's complex Arnoldi (znaupd), not
    Lanczos.

    The run stops at tol = KRYLOV_TOL.  The counts put the rest of the
    spectrum of T = (M - sigma)^-1 beyond the wanted theta =
    1/(lambda - sigma): above 0 at sigma = hi, below 1/(hi - lo) at
    sigma = lo.  If a Kato-Temple bound from that gap and the other Ritz
    values (_kato_temple) exceeds 4 eps max(|lo|, |hi|), the run is
    repeated at tol = 0, ARPACK's stop at machine precision.  An upper
    edge on an eigenvalue, at sigma = lo, always repeats: the edge move is
    its gap.

    A run that returns fewer than count of them in the window, widened by
    the edge moves and EDGE_MOVE of its width, raises WindowCoverageError.
    The count values are returned clipped onto the window: one on an edge
    may come back a roundoff outside it.  More than size // 8 raise InputError
    before any iteration: such a window holds far more than the few bands
    a reference solve resolves, and Arnoldi then costs more than a dense
    solve (128 eigenvalues of a 1,024-unknown fiber of the separable
    fixture: 0.69 s against 0.42 s).

    Returns (values, nu(lo)): the i-th value is eigenvalue nu(lo) + i of M.
    """
    lo, hi = window
    size = M.shape[0]
    nudge = EDGE_MOVE * (hi - lo)
    factors, hi_shift, below_hi = _edge_factors(M, hi, nudge)
    # unwanted holds theta = 1/(lambda - sigma) of every eigenvalue outside
    if lower_clear:
        below_lo, lo_shift, sigma, which = 0, lo, hi_shift, "SA"
        unwanted = (0.0, np.inf)
    else:
        del factors  # one factorization alive at a time
        factors, lo_shift, below_lo = _edge_factors(M, lo, -nudge)
        sigma, which = lo_shift, "LA"
        unwanted = (-np.inf, 1.0 / (hi_shift - lo_shift))
    count = below_hi - below_lo
    if count > size // 8:
        raise InputError(
            f"window [{lo}, {hi}] holds {count} of the {size} eigenvalues, "
            f"more than the {size // 8} a sparse solve certifies; narrow "
            "the window")
    if count == 0:
        return np.empty(0), below_lo
    inverse = spla.LinearOperator(M.shape, matvec=factors.solve,
                                  dtype=M.dtype)
    # a fixed generic start vector makes reruns bit-identical
    v0 = np.random.default_rng(0).standard_normal(size) + 0j
    limit = 4.0 * np.finfo(float).eps * max(abs(lo), abs(hi))
    for tol in (KRYLOV_TOL, 0.0):
        vals = np.sort(spla.eigsh(M, k=count, sigma=sigma, which=which,
                                  v0=v0, OPinv=inverse, tol=tol,
                                  return_eigenvectors=False))
        if tol and np.all(_kato_temple(vals, sigma, tol, unwanted) <= limit):
            break
    found = np.count_nonzero((vals >= lo_shift - nudge)
                             & (vals <= hi_shift + nudge))
    if found < count:
        raise WindowCoverageError(
            f"window [{lo}, {hi}] holds {count} eigenvalues, but the "
            f"shift-invert solve returned {found} of them")
    return np.clip(vals, lo, hi), below_lo


def certified_below(symbol: PeriodicSymbol, points_per_cell: int,
                    window) -> bool:
    """Whether the lower window edge certifiably lies below every fiber.

    The diamagnetic inequality (Avron, Herbst and Simon, Duke Math. J. 45,
    847 (1978)) on the stencil: every link and wrap phase of a fiber
    M_A(k) has modulus 1, so the triangle inequality on each link gives
    <psi, M_A(k) psi> >= <|psi|, M_0 |psi|>, with M_0 the zero-field
    periodic stencil of the magnetic cell.  M_0 has off-diagonal entries
    <= 0 on a connected grid, so by Perron-Frobenius its lowest
    eigenvector is positive and unique, hence invariant under the
    unit-cell translation, and its lowest eigenvalue is the unit cell's
    at k = 0.  If that cell has no eigenvalue below the lower edge (moved
    outward by EDGE_MOVE, as in window_eigs), no fiber of any flux,
    momentum or gauge has one, so one count serves every
    DirectDiscretization of this symbol and points_per_cell.  False, for
    an edge the cell does not clear, leaves the fibers to count both edges.
    """
    cell = DirectDiscretization(symbol, Fraction(0), points_per_cell
                                ).bloch_matrix(np.zeros(symbol.lattice.dim))
    lo, hi = window
    return _edge_factors(cell, lo, -EDGE_MOVE * (hi - lo))[2] == 0


def direct_spectrum(
    disc: DirectDiscretization,
    window,
    merge_tol: float,
    k_resolution: int,
    lower_clear: bool = False,
) -> SpectrumSet:
    """sigma(P_eps) within the window, as the ranges of its branches.

    Solves the finite-difference fibers at the representatives of
    lattice.magnetic_momenta (r * r / gcd(r, q) in d=2 for
    r = k_resolution), one table row each.  The i-th window eigenvalue of
    fiber k is branch nu_k(lo) + i; a branch is -inf in the fibers where
    it lies below the window and +inf where above, so its range is clipped
    at that edge.  lower_clear, from certified_below, says that no fiber
    has an eigenvalue below the window, and each fiber then factors only
    M - hi; otherwise each fiber counts both edges.
    """
    momenta = magnetic_momenta(disc.symbol.lattice.dim,
                               disc.flux.denominator, k_resolution)
    solved = [window_eigs(disc.bloch_matrix(k), window, lower_clear)
              for k in momenta]
    # column j holds branch base + j, base the least nu_k(lo)
    base = min(nu for _, nu in solved)
    table = np.full((len(solved), max(nu + vals.size for vals, nu in solved)
                     - base), np.inf)
    for row, (vals, nu) in zip(table, solved):
        row[:nu - base], row[nu - base:][:vals.size] = -np.inf, vals
    return SpectrumSet(points=table, window=window, merge_tol=merge_tol)
