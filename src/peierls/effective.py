"""Gauge-covariant lattice reduction of a periodic effective symbol.

A dual-periodic symbol q(xi) (N x N Hermitian blocks on the momentum cell)
is expanded in Fourier hoppings q_hat_alpha and quantized on l2 of the
lattice with the magnetic line phases:

    entry(gamma, alpha) = omega_A(gamma, alpha) * q_hat_{gamma - alpha},

with the phases of magnetic.hermitian_hops.  For a constant field in the
transversal gauge omega_A(gamma, alpha) = omega_A(-gamma, -alpha) =
exp(-i (Phi_s / 2) (gamma ^ alpha)) with Phi_s the signed flux through the
unit cell and gamma ^ alpha the wedge of the integer coordinates.  At
rational flux Phi_s = 2 pi p / q the operator commutes with the magnetic
translations by (q, 0) and (0, 1) and reduces to qN x qN Bloch matrices
over a magnetic momentum cell, one per momentum of
lattice.magnetic_momenta.

Hermiticity is decided once: HoppingSet checks q_hat_{-alpha} =
q_hat_alpha^* when it is built, and box_matrix and the magnetic-Bloch
operator (a magnetic.BlochOperator, the form of the FD reference too)
take the hops alpha = 0 and alpha > 0 plus their adjoints, so they are
Hermitian by construction and check nothing again.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .lattice import BZGrid, InputError, Lattice, magnetic_momenta
from .magnetic import (BlochOperator, VectorPotential, bloch_operator,
                       field_for_flux, hermitian_hops, magnetic_cells)
from .spectra import SpectrumSet, distance


# Complex entries (16 bytes: 512 MB) that the fibers of one momentum grid
# and their k-independent blocks, or one dense box matrix, may take: at the
# CLI default k_resolution 32, flux denominators up to q = 124 for one band
# at hopping radius 8 (160 where the fold leaves fewer fibers); boxes of up
# to 5,792 sites (half_width 2,895 in d=1, 37 in d=2).
MAX_FIBER_ENTRIES = 2**25

# Largest ||q_hat_alpha - q_hat_{-alpha}^*||_2 fourier_hoppings symmetrizes
# away; above it the band data break Hermitian transport.
ASYMMETRY_TOL = 1e-6

# Least overlap of two magnetic-Bloch branch ranges that subband_groups joins
OVERLAP_TOL = 1e-9

# The k_resolution of the momentum grid that subband_groups counts on
SUBBAND_K_RESOLUTION = 32


class InconsistentSymbolError(ValueError):
    """Fourier data breaks the Hermitian-transport symmetry."""


@dataclass(frozen=True)
class HoppingSet:
    """Fourier hoppings q_hat_alpha of an N x N symbol over Z^d.

    Hermitian transport q_hat_{-alpha} = q_hat_alpha^* is checked once,
    here: a set with sum_alpha ||q_hat_{-alpha} - q_hat_alpha^*||_F above
    1e-10 max(1, sum_alpha ||q_hat_alpha||_F), q_hat_{-alpha} looked up
    by the key -alpha and a missing one counted as a zero block, raises
    InconsistentSymbolError.  The lattice operators are then built
    from the hops alpha >= 0 (lexicographically) plus their adjoints:
    Hermitian by construction.
    """

    hoppings: dict  # {tuple(int): (N, N) complex array}, not empty
    asymmetry: float  # what fourier_hoppings symmetrized away

    def __post_init__(self):
        if not self.hoppings:
            raise InputError("a hopping set needs at least one hop")
        keys, blocks = self.stacked()
        zero = np.zeros_like(blocks[0])
        partner = np.stack([self.hoppings.get(tuple(alpha), zero)
                            for alpha in -keys])
        herm = np.linalg.norm(partner - np.conj(np.swapaxes(blocks, 1, 2)),
                              axis=(1, 2)).sum()
        if herm > 1e-10 * max(1.0, np.linalg.norm(blocks, axis=(1, 2)).sum()):
            raise InconsistentSymbolError(
                f"hoppings break Hermitian transport by {herm:.3e}")

    @property
    def dim(self) -> int:
        return len(next(iter(self.hoppings)))

    @property
    def n(self) -> int:  # block size N
        return len(next(iter(self.hoppings.values())))

    def stacked(self):
        """The keys (K, d) and blocks (K, N, N) in dict order."""
        keys = np.asarray(list(self.hoppings), dtype=int).reshape(-1, self.dim)
        return keys, np.stack(list(self.hoppings.values()))

    def resum(self, frac_coords: np.ndarray) -> np.ndarray:
        """q(xi) at fractional momenta (rows), inverting the Fourier series:
        the fibers of one site with the hoppings as its cell shifts."""
        keys, blocks = self.stacked()
        return bloch_operator(0 * keys[:, 0], 0 * keys[:, 0], keys, blocks,
                              1).dense(2.0 * np.pi * np.asarray(frac_coords))


def fourier_hoppings(
    symbol_values: np.ndarray, grid: BZGrid, radius: int
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
        raise InputError(
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
    if asym > ASYMMETRY_TOL:
        raise InconsistentSymbolError(
            f"Fourier hoppings break Hermitian transport by {asym:.3e}"
        )
    fixed = dict(zip(keys, 0.5 * (blocks + adjoint)))
    return HoppingSet(hoppings=fixed, asymmetry=asym)


def hopping_decay_fit(hops: HoppingSet) -> float:
    """Smallest constant C with ||q_hat_alpha|| <= C <alpha>^{-4}."""
    best = 0.0
    for alpha, blk in hops.hoppings.items():
        weight = (1.0 + float(np.dot(alpha, alpha))) ** 2.0
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
    return HoppingSet(hoppings=out, asymmetry=hops.asymmetry)


def _lattice_hops(hops: HoppingSet, flux: Fraction, shape, origin=0.0):
    """magnetic.hermitian_hops on the unit grid origin + i of this shape,
    wrapped over it, at flux 2 pi flux per cell: the hops alpha >= 0
    lexicographically, alpha_1 > 0 or alpha_1 = 0 <= alpha_d in the d <= 2
    that Lattice enforces, from gamma to gamma - alpha, and their adjoints,
    those of q_hat_-alpha."""
    A = VectorPotential(field_for_flux(flux, Lattice(np.eye(hops.dim))))
    keys, blocks = hops.stacked()
    half = (keys[:, 0] > 0) | (keys[:, 0] == 0) & (keys[:, -1] >= 0)
    return hermitian_hops(A, shape, np.ones(hops.dim), -keys[half],
                          blocks[half], origin)


def box_matrix(hops: HoppingSet, flux: Fraction,
               half_width: int) -> np.ndarray:
    """The operator on the sites with |gamma_i| <= half_width: the shift-0
    term of the periodic operator on the box, its hops that stay in it
    (Dirichlet)."""
    magnetic_cells(flux, hops.dim)  # an exact flux, 0 in d=1, else InputError
    radius = max(max(abs(a) for a in alpha) for alpha in hops.hoppings)
    if half_width < radius:
        raise InputError("box size must be at least the hopping radius")
    n, side = hops.n, 2 * half_width + 1
    sites = side**hops.dim
    if (sites * n) ** 2 > MAX_FIBER_ENTRIES:
        raise InputError(
            f"half_width {half_width} gives a {sites * n} x {sites * n} box "
            f"matrix, more than the limit of {MAX_FIBER_ENTRIES} entries")
    links = _lattice_hops(hops, flux, (side,) * hops.dim, -half_width)
    inside = ~links[2].any(axis=1)
    return bloch_operator(*(x[inside] for x in links),
                          sites).dense(np.zeros(hops.dim))[0]


def _bloch_operator(hops: HoppingSet, flux: Fraction) -> BlochOperator:
    """The magnetic-Bloch fibers H(k) = sum_s C_s exp(i <k, s>) over the
    magnetic cell of q unit cells, the q x 1 box of sites (s, 0).

    With (T_a f)_gamma = exp(-i (Phi/2) (gamma ^ a)) f_{gamma - a}
    commuting with the operator for every a, the joint Bloch condition for
    a in {(q, 0), (0, 1)} reduces f to the values u_s = f_{(s, 0)},
    s = 0..q-1, and the operator acts by

        (H(k) u)_s = sum_beta q_hat_beta
            exp(i [ (Phi/2) s b2 + k1 m + (Phi/2) q n m + k2 n
                    - (Phi/2) s' n ]) u_{s'}

    with s' = (s - b1) mod q, m = (s - b1 - s') / q, n = -b2: the hop of
    _lattice_hops from (s, 0) to (s', 0) in the cell shifted by (m, n),
    with its wrap factor at k = 0, is block (s, s') of C_(m, n), and
    BlochOperator adds the exp(i (k1 m + k2 n)).  In d=1 the flux is zero
    and this is the symbol evaluated on the momentum grid.
    """
    q = magnetic_cells(flux, hops.dim)
    return bloch_operator(*_lattice_hops(hops, flux, (q, 1)[:hops.dim]), q)


def bloch_eigenvalue_cloud(
    hops: HoppingSet, flux: Fraction, k_resolution: int
) -> np.ndarray:
    """The magnetic-Bloch branch table over a uniform momentum grid: the
    ascending eigenvalues of one _bloch_operator fiber per row, shape
    (fibers, qN), at the representatives of lattice.magnetic_momenta, whose
    ranges are those of the whole grid."""
    q = magnetic_cells(flux, hops.dim)
    momenta = magnetic_momenta(hops.dim, q, k_resolution)
    dim = q * hops.n
    # a key alpha >= 0 adds blocks at two shifts at most, its reverse two
    entries = (len(momenta) + 4 * len(hops.hoppings)) * dim**2
    if entries > MAX_FIBER_ENTRIES:
        raise InputError(
            f"the magnetic-Bloch fibers at flux {flux} ({len(momenta)} of "
            f"{dim} x {dim}) take {entries} complex entries, more than the "
            f"limit of {MAX_FIBER_ENTRIES}")
    return np.linalg.eigvalsh(_bloch_operator(hops, flux).dense(momenta))


def subband_groups(hops: HoppingSet, flux: Fraction) -> int:
    """Number of subband groups of the magnetic-Bloch spectrum: its branch
    ranges, joined only where they overlap by at least OVERLAP_TOL (merge_tol
    -OVERLAP_TOL), so subbands that merely touch at isolated points (the
    central pair at even denominators) still count separately.
    """
    cloud = bloch_eigenvalue_cloud(hops, flux, SUBBAND_K_RESOLUTION)
    return len(SpectrumSet(cloud, (-np.inf, np.inf),
                           -OVERLAP_TOL).merged_intervals)


def lambda_scan(
    band_hoppings: HoppingSet,
    flux: Fraction,
    lam_grid: np.ndarray,
    k_resolution: int,
) -> np.ndarray:
    """margin(lambda) = min |eig of the lattice operator of lambda - q|.

    The symbol of the effective block for a simple band is
    lambda - lambda_k(xi), so its lattice operator is lambda * I minus the
    operator of the band hoppings, and the margin is the distance from
    lambda to the band-operator spectrum: the union of the branch ranges
    of bloch_eigenvalue_cloud, 0 inside a band.
    """
    union = SpectrumSet(bloch_eigenvalue_cloud(band_hoppings, flux,
                                               k_resolution),
                        (-np.inf, np.inf), 0.0)
    return distance(lam_grid, union.merged_intervals)


def reconstruct_spectrum(
    lam_grid: np.ndarray, margins: np.ndarray, tol: float, window, merge_tol: float
) -> SpectrumSet:
    """{lambda : margin(lambda) <= tol} as a SpectrumSet."""
    lam = np.asarray(lam_grid, dtype=float)
    return SpectrumSet(
        points=lam[np.asarray(margins) <= tol], window=window, merge_tol=merge_tol
    )
