"""Gauge-covariant lattice reduction of a periodic effective symbol.

A dual-periodic symbol q(xi) (N x N Hermitian blocks on the momentum cell)
is expanded in Fourier hoppings q_hat_alpha and quantized on l2 of the
lattice with the magnetic line phases:

    entry(gamma, alpha) = omega_A(gamma, alpha) * q_hat_{gamma - alpha},

with the phases of magnetic.peierls_hops.  For a constant field in the
transversal gauge omega_A(gamma, alpha) = omega_A(-gamma, -alpha) =
exp(-i (Phi_s / 2) (gamma ^ alpha)) with Phi_s the signed flux through the
unit cell and gamma ^ alpha the wedge of the integer coordinates.  At
rational flux Phi_s = 2 pi p / q the operator commutes with the magnetic
translations by (q, 0) and (0, 1) and reduces to qN x qN Bloch matrices
over a magnetic momentum cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .lattice import BZGrid, GridTooLargeError, Lattice, momentum_grid
from .magnetic import MagneticField, VectorPotential, peierls_hops
from .spectra import SpectrumSet


# Complex entries (16 bytes: 512 MB) that the fibers of one momentum grid
# and their k-independent blocks may take: at the CLI default k_resolution
# 32, flux denominators up to q = 124 for one band at hopping radius 8.
MAX_FIBER_ENTRIES = 2**25


class AliasingError(ValueError):
    pass


class InconsistentSymbolError(ValueError):
    """Fourier data breaks the Hermitian-transport symmetry."""


class IrrationalFluxError(ValueError):
    pass


@dataclass(frozen=True)
class HoppingSet:
    n: int  # block size N
    dim: int
    hoppings: dict  # {tuple(int): (N, N) complex array}
    source_tag: str
    asymmetry: float = 0.0

    def resum(self, frac_coords: np.ndarray) -> np.ndarray:
        """q(xi) at fractional momenta (rows), inverting the Fourier series."""
        frac = np.atleast_2d(np.asarray(frac_coords, dtype=float))
        out = np.zeros((frac.shape[0], self.n, self.n), dtype=complex)
        for key, blk in self.hoppings.items():
            phase = np.exp(2j * np.pi * (frac @ np.asarray(key, dtype=float)))
            out += phase[:, None, None] * blk
        return out


def fourier_hoppings(
    symbol_values: np.ndarray,
    grid: BZGrid,
    radius: int,
    source_tag: str = "",
    asym_tol: float = 1e-6,
) -> HoppingSet:
    """Discrete Fourier hoppings q_hat_alpha over the momentum cell grid.

    symbol_values has shape (n_points,) for scalar symbols or
    (n_points, N, N); points are ordered as grid.points().
    """
    vals = np.asarray(symbol_values, dtype=complex)
    if vals.ndim == 1:
        vals = vals[:, None, None]
    d = grid.dim
    res = grid.resolution
    if res < 2 * radius + 1:
        raise AliasingError(
            f"grid resolution {res} cannot resolve hopping radius {radius}"
        )
    # at the centred grid point xi_j = j/res - 1/2 the phase exp(-2 pi i
    # <xi_j, alpha>) is (-1)^(sum alpha) exp(-2 pi i <j, alpha>/res), so one
    # FFT over the grid axes gives every hopping
    spectrum = np.fft.fftn(vals.reshape((res,) * d + vals.shape[1:]),
                           axes=tuple(range(d))) / vals.shape[0]
    keys = list(product(range(-radius, radius + 1), repeat=d))
    alphas = np.asarray(keys, dtype=int).reshape(-1, d)
    signs = np.where(alphas.sum(axis=1) % 2, -1.0, 1.0)
    blocks = signs[:, None, None] * spectrum[tuple((alphas % res).T)]

    # Hermitian-transport symmetrization q_hat_{-alpha} = q_hat_alpha^*; in
    # the lexicographic box of keys, -alpha sits at the mirrored position
    adjoint = np.conj(np.swapaxes(blocks[::-1], 1, 2))
    asym = float(np.linalg.norm(blocks - adjoint, ord=2, axis=(1, 2)).max())
    if asym > asym_tol:
        raise InconsistentSymbolError(
            f"Fourier hoppings break Hermitian transport by {asym:.3e}"
        )
    fixed = dict(zip(keys, 0.5 * (blocks + adjoint)))
    return HoppingSet(
        n=vals.shape[1], dim=d, hoppings=fixed, source_tag=source_tag,
        asymmetry=asym,
    )


def hopping_decay_fit(hops: HoppingSet, k: int = 4) -> float:
    """Smallest constant C with ||q_hat_alpha|| <= C <alpha>^{-k}."""
    best = 0.0
    for alpha, blk in hops.hoppings.items():
        weight = (1.0 + float(np.dot(alpha, alpha))) ** (k / 2.0)
        best = max(best, float(np.linalg.norm(blk, ord=2)) * weight)
    return best


def gauge_shifted_hoppings(
    hops: HoppingSet, shift, lattice: Lattice
) -> HoppingSet:
    """Hoppings after the constant gauge change A -> A + c.

    The line phase over the hop beta gains exp(-i <c, beta>), which is a
    unitary (diagonal) conjugation of the lattice operator; spectra are
    unchanged.
    """
    c = np.asarray(shift, dtype=float)
    out = {}
    for alpha, blk in hops.hoppings.items():
        beta = np.asarray(alpha, dtype=float) @ lattice.basis
        out[alpha] = blk * np.exp(-1j * float(c @ beta))
    return HoppingSet(
        n=hops.n, dim=hops.dim, hoppings=out,
        source_tag=hops.source_tag + "+shift", asymmetry=hops.asymmetry,
    )


def field_for_flux(flux: Fraction, lattice: Lattice) -> MagneticField:
    """Constant field whose unit-cell flux is exactly 2 pi * flux."""
    signed_area = float(np.linalg.det(lattice.basis))
    return MagneticField(b12=2.0 * np.pi * float(flux) / signed_area)


@dataclass(frozen=True)
class EffectiveLatticeOperator:
    hoppings: HoppingSet
    mode: str  # "box" or "magnetic_bloch"
    flux: Fraction  # signed unit-cell flux / 2 pi (0 for zero field)
    box_size: int | None = None
    box_matrix: np.ndarray | None = None


def assemble_effective(
    hops: HoppingSet,
    mode: str,
    flux: Fraction = Fraction(0),
    box_size: int | None = None,
) -> EffectiveLatticeOperator:
    """Build the lattice operator in box or magnetic-Bloch form.

    flux is the exact signed unit-cell flux divided by 2 pi; pass a
    Fraction (rationality is part of the type, never detected from
    floats).
    """
    if not isinstance(flux, Fraction):
        raise IrrationalFluxError("flux must be an exact Fraction p/q")
    radius = max(
        (max(abs(a) for a in alpha) for alpha in hops.hoppings), default=0
    )
    if mode == "box":
        if box_size is None or box_size < radius:
            raise ValueError("box size must be at least the hopping radius")
        matrix = _box_matrix(hops, flux, box_size)
        return EffectiveLatticeOperator(
            hoppings=hops, mode=mode, flux=flux, box_size=box_size,
            box_matrix=matrix,
        )
    if mode == "magnetic_bloch":
        return EffectiveLatticeOperator(hoppings=hops, mode=mode, flux=flux)
    raise ValueError(f"unknown mode {mode!r}")


def _lattice_hops(hops: HoppingSet, flux: Fraction, shape, **grid):
    """peierls_hops of the hoppings on the unit grid of this shape at flux
    2 pi flux per cell: rows, cols, cell shifts, phased blocks (hops, N, N)."""
    A = VectorPotential(MagneticField(b12=2.0 * np.pi * float(flux)))
    keys = np.asarray(list(hops.hoppings), dtype=int).reshape(-1, hops.dim)
    rows, cols, hop, cell, phases = peierls_hops(
        A, shape, np.ones(hops.dim), -keys, **grid)
    blocks = np.stack(list(hops.hoppings.values()))
    return rows, cols, cell, phases[:, None, None] * blocks[hop]


def _box_matrix(hops: HoppingSet, flux: Fraction, box_size: int) -> np.ndarray:
    n, side = hops.n, 2 * box_size + 1
    sites = side**hops.dim
    rows, cols, _, entries = _lattice_hops(hops, flux, (side,) * hops.dim,
                                           origin=-box_size)
    M = np.zeros((sites * n, sites * n), dtype=complex)
    M.reshape(sites, n, sites, n)[rows, :, cols, :] = entries
    herm = np.linalg.norm(M - np.conj(M.T), ord="fro")
    if herm > 1e-10 * max(1.0, np.linalg.norm(M, ord="fro")):
        raise InconsistentSymbolError("box operator not Hermitian")
    return M


def _bloch_coefficients(hops: HoppingSet, flux: Fraction):
    """k-independent blocks of the magnetic-Bloch fiber.

    Returns (shifts, coeffs) with shifts of shape (J, d) and coeffs of
    shape (J, qN, qN) such that

        H(k) = sum_j coeffs[j] exp(i <k, shifts[j]>).

    The magnetic cell is the q x 1 box of sites (s, 0); at k = 0 a hop
    from (s, 0) to (s', 0) in the cell shifted by (m, n) adds its entry
    of _lattice_hops to block (s, s') of C_(m, n).  H(k) is Hermitian for
    every k exactly when C_(m, n) = C_(-m, -n)^*; this is checked once
    here, and the blocks are returned symmetrized.  In d=1 the flux is
    ignored (q = 1).
    """
    d, n = hops.dim, hops.n
    q = flux.denominator if d == 2 else 1
    rows, cols, cell, entries = _lattice_hops(hops, flux, (q, 1)[:d],
                                              k=np.zeros(d))
    # shifts in order of first appearance, as _bloch_fibers sums them, then
    # the negatives that no hop reaches (zero blocks); -shift has code -code
    code = cell @ (2 * np.abs(cell).max() + 1) ** np.arange(d)[::-1]
    both = np.concatenate([code, -code])
    first = np.sort(np.unique(both, return_index=True)[1])
    codes, shifts = both[first], np.concatenate([cell, -cell])[first]
    order = np.argsort(codes)
    group = order[np.searchsorted(codes, code, sorter=order)]
    coeffs = np.zeros((codes.size, q * n, q * n), dtype=complex)
    coeffs.reshape(-1, q, n, q, n)[group, rows, :, cols, :] += entries
    partner = order[np.searchsorted(codes, -codes, sorter=order)]
    adjoint = np.conj(np.swapaxes(coeffs[partner], 1, 2))
    # sup_k ||H(k) - H(k)^*||_2 <= sum_j ||C_j - C_-j^*||_F
    herm = float(np.linalg.norm(coeffs - adjoint, axis=(1, 2)).sum())
    scale = float(np.linalg.norm(coeffs, axis=(1, 2)).sum())
    if herm > 1e-10 * max(1.0, scale):
        raise InconsistentSymbolError("magnetic-Bloch fiber not Hermitian")
    return shifts.astype(float), 0.5 * (coeffs + adjoint)


def _bloch_fibers(hops: HoppingSet, flux: Fraction, kpts) -> np.ndarray:
    """Magnetic-Bloch fibers H(k) at the rows of kpts, shape (K, qN, qN).

    H(k) is the fiber over the magnetic cell of q unit cells.  With
    (T_a f)_gamma = exp(-i (Phi/2) (gamma ^ a)) f_{gamma - a}
    commuting with the operator for every a, the joint Bloch condition for
    a in {(q, 0), (0, 1)} reduces f to the values u_s = f_{(s, 0)},
    s = 0..q-1, and the operator acts by

        (H(k) u)_s = sum_beta q_hat_beta
            exp(i [ (Phi/2) s b2 + k1 m + (Phi/2) q n m + k2 n
                    - (Phi/2) s' n ]) u_{s'}

    with s' = (s - b1) mod q, m = (s - b1 - s') / q, n = -b2.  In d=1 the
    flux is zero and this is the symbol evaluated on the momentum grid.
    """
    kpts = np.asarray(kpts, dtype=float).reshape(-1, hops.dim)
    dim = (flux.denominator if hops.dim == 2 else 1) * hops.n
    # a hop adds blocks at two shifts at most, doubled at most by partners
    entries = (kpts.shape[0] + 4 * len(hops.hoppings)) * dim**2
    if entries > MAX_FIBER_ENTRIES:
        raise GridTooLargeError(
            f"the magnetic-Bloch fibers at flux {flux} ({kpts.shape[0]} of "
            f"{dim} x {dim}) take {entries} complex entries, more than the "
            f"limit of {MAX_FIBER_ENTRIES}")
    shifts, coeffs = _bloch_coefficients(hops, flux)
    phases = np.exp(1j * (kpts @ shifts.T))
    # one term per shift in hopping order: at zero flux these are the
    # additions of a direct resummation of the symbol, bit for bit
    fibers = np.zeros((kpts.shape[0],) + coeffs.shape[1:], dtype=complex)
    for j, C in enumerate(coeffs):
        fibers += phases[:, j, None, None] * C
    return fibers


def _bloch_branches(
    hops: HoppingSet, flux: Fraction, k_resolution: int
) -> np.ndarray:
    """Ascending fiber eigenvalues per momentum, shape (K, qN)."""
    kpts = momentum_grid(hops.dim, k_resolution)
    return np.linalg.eigvalsh(_bloch_fibers(hops, flux, kpts))


def bloch_eigenvalue_cloud(
    hops: HoppingSet, flux: Fraction, k_resolution: int
) -> np.ndarray:
    """All magnetic-Bloch eigenvalues over a uniform momentum grid."""
    return np.sort(_bloch_branches(hops, flux, k_resolution), axis=None)


def subband_groups(
    hops: HoppingSet, flux: Fraction, k_resolution: int = 32,
    overlap_tol: float = 1e-9,
) -> int:
    """Number of subband groups of the magnetic-Bloch spectrum.

    Branch intervals [min_k lam_j(k), max_k lam_j(k)] are grouped only when
    they overlap by more than overlap_tol, so subbands that merely touch at
    isolated points (the central pair at even denominators) still count
    separately.
    """
    branches = _bloch_branches(hops, flux, k_resolution)
    lo = branches.min(axis=0)
    hi = branches.max(axis=0)
    groups = 1
    reach = hi[0]
    for j in range(1, lo.size):
        if lo[j] >= reach - overlap_tol:
            groups += 1
        reach = max(reach, hi[j])
    return groups


def effective_spectrum(
    op: EffectiveLatticeOperator,
    window,
    merge_tol: float,
    k_resolution: int = 32,
) -> SpectrumSet:
    if op.mode == "box":
        vals = np.linalg.eigvalsh(op.box_matrix)
    else:
        vals = bloch_eigenvalue_cloud(op.hoppings, op.flux, k_resolution)
    return SpectrumSet(points=vals, window=window, merge_tol=merge_tol)


def lambda_scan(
    band_hoppings: HoppingSet,
    flux: Fraction,
    lam_grid: np.ndarray,
    k_resolution: int = 64,
) -> np.ndarray:
    """margin(lambda) = min |eig of the lattice operator of lambda - q|.

    The symbol of the effective block for a simple band is
    lambda - lambda_k(xi), so its lattice operator is lambda * I minus the
    operator of the band hoppings and the margin is the distance from
    lambda to the band-operator spectrum; the eigenvalue cloud is computed
    once.
    """
    return cloud_margins(
        bloch_eigenvalue_cloud(band_hoppings, flux, k_resolution), lam_grid
    )


def cloud_margins(cloud: np.ndarray, lam_grid: np.ndarray) -> np.ndarray:
    """Distance from each lambda to the sorted eigenvalue cloud."""
    lam = np.asarray(lam_grid, dtype=float)
    idx = np.searchsorted(cloud, lam)
    idx_lo = np.clip(idx - 1, 0, cloud.size - 1)
    idx_hi = np.clip(idx, 0, cloud.size - 1)
    return np.minimum(
        np.abs(lam - cloud[idx_lo]), np.abs(lam - cloud[idx_hi])
    )


def reconstruct_spectrum(
    lam_grid: np.ndarray, margins: np.ndarray, tol: float, window, merge_tol: float
) -> SpectrumSet:
    """{lambda : margin(lambda) <= tol} as a SpectrumSet."""
    lam = np.asarray(lam_grid, dtype=float)
    return SpectrumSet(
        points=lam[np.asarray(margins) <= tol], window=window, merge_tol=merge_tol
    )
