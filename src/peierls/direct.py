"""Reference solver for the full magnetic Hamiltonian.

Finite differences with Peierls link phases: each nearest-neighbor hop of
the second-order Laplacian stencil carries the exact line-integral phase
omega_A(x, x') of the link, which keeps the discrete operator exactly
gauge covariant.  For a constant field at rational unit-cell flux p/q the
operator is diagonalized over a magnetic cell of q unit cells with
magnetic-Bloch boundary conditions

    u(y + a) = exp(i k_a) exp(i <A(a), y>) u(y)

for the magnetic-cell vectors a; the ordinary Bloch case is the same with
A = 0.  The field must be the one whose unit-cell flux is 2 pi p/q, or the
link phases and the cell wrap describe different operators.  Lattices must
be rectangular (diagonal basis) in the finite-difference modes.

Window eigenvalues of matrices above 600 unknowns come from shift-invert
Lanczos at the window centre, with a coverage certificate: the farthest
returned eigenvalue must lie outside the window, else the batch grows.  A
window the certificate cannot cover raises WindowCoverageError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .bloch import compute_bands
from .lattice import Lattice, bz_grid, dual_shell, momentum_grid
from .magnetic import MagneticField, hermitian_sqrt
from .spectra import SpectrumSet
from .symbols import Nonrelativistic, PeriodicSymbol, Relativistic


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
    basis: str = "fd"  # "fd" | "spectral" (spectral only at zero flux)
    gauge_chi: object = None  # optional magnetic-cell-periodic gauge function

    def bloch_matrix(self, k) -> sp.csr_matrix:
        if self.mode != "magnetic_bloch":
            raise ValueError("bloch_matrix is defined in magnetic_bloch mode")
        if self.basis == "spectral":
            return sp.csr_matrix(_spectral_cell(
                self.symbol, self.points_per_cell, np.asarray(k, dtype=float)
            ))
        return _fd_magnetic_cell(
            self.symbol, self.field, self.flux.denominator,
            self.points_per_cell, np.asarray(k, dtype=float),
            gauge_chi=self.gauge_chi,
        )

    def box_matrix(self) -> sp.csr_matrix:
        if self.mode != "box":
            raise ValueError("box_matrix is defined in box mode")
        return _fd_box(self.symbol, self.field, self.box_size, self.box_points)


def assemble_direct(
    symbol: PeriodicSymbol,
    field: MagneticField | None,
    mode: str,
    flux: Fraction = Fraction(0),
    points_per_cell: int = 16,
    box_size: float = 0.0,
    box_points: int = 0,
    basis: str = "fd",
    gauge_chi=None,
) -> DirectDiscretization:
    if mode not in ("zero_field_bloch", "magnetic_bloch", "box"):
        raise ValueError(f"unknown mode {mode!r}")
    if basis not in ("fd", "spectral"):
        raise ValueError(f"unknown basis {basis!r}")
    if basis == "spectral" and flux != 0:
        raise ValueError("the spectral basis is available at zero flux only")
    if mode != "zero_field_bloch":
        if not isinstance(flux, Fraction):
            raise ValueError("flux must be an exact Fraction")
        if points_per_cell < 16 and mode == "magnetic_bloch":
            raise GridTooCoarseError("need at least 16 points per cell")
        if not isinstance(symbol.kind, (Nonrelativistic, Relativistic)):
            raise ValueError("finite differences support kinetic kinds only")
        _cell_lengths(symbol.lattice)
    return DirectDiscretization(
        symbol=symbol, field=field, mode=mode, flux=flux,
        points_per_cell=points_per_cell, box_size=box_size,
        box_points=box_points, basis=basis, gauge_chi=gauge_chi,
    )


def _spectral_cell(symbol: PeriodicSymbol, n: int, k: np.ndarray) -> np.ndarray:
    """Fourier-multiplier matrix of the zero-field Bloch fiber at momentum k.

    M = F^* diag(g(xi + eta)) F + V(x) on the n^d position grid over the
    unit cell, with xi the fractional momentum k / (2 pi) mapped through the
    dual basis; exact for band-limited potentials.
    """
    lat = symbol.lattice
    lengths = _cell_lengths(lat)
    d = lat.dim
    xi = (k / (2.0 * np.pi)) @ lat.dual
    axes_freq = [2.0 * np.pi * np.fft.fftfreq(n, d=lengths[ax] / n)
                 for ax in range(d)]
    mesh = np.meshgrid(*axes_freq, indexing="ij")
    freqs = np.stack([m.ravel() for m in mesh], axis=-1)
    gvals = symbol.kinetic(xi[None, :] + freqs)
    total = n**d
    shape = (n,) * d
    # columns of F^* diag(g) F: apply the multiplier to each basis vector
    eye = np.eye(total)
    transformed = np.fft.fftn(eye.reshape(shape * 1 + (total,)),
                              axes=tuple(range(d)))
    transformed = transformed.reshape(total, total) * gvals[:, None]
    M = np.fft.ifftn(transformed.reshape(shape + (total,)),
                     axes=tuple(range(d))).reshape(total, total)
    axes_pos = [lengths[ax] / n * np.arange(n) for ax in range(d)]
    mesh = np.meshgrid(*axes_pos, indexing="ij")
    pos = np.stack([m.ravel() for m in mesh], axis=-1)
    M = M + np.diag(np.atleast_1d(symbol.potential.value(pos)))
    return M


def _fd_magnetic_cell(
    symbol: PeriodicSymbol,
    field: MagneticField | None,
    q: int,
    n: int,
    k: np.ndarray,
    gauge_chi=None,
) -> sp.csr_matrix:
    """Sparse FD matrix over q unit cells (stacked along axis 1) at momentum k."""
    lat = symbol.lattice
    lengths = _cell_lengths(lat)
    d = lat.dim
    b = field.strength if field is not None else 0.0
    reps = np.ones(d, dtype=int)
    reps[0] = q
    npts = reps * n
    h = lengths / n
    cell_vecs = np.diag(lengths * reps) if d == 2 else np.array([[lengths[0] * q]])

    shape = tuple(npts)
    total = int(np.prod(shape))
    idx = np.arange(total).reshape(shape)
    coords = np.stack(
        np.meshgrid(*[np.arange(m) for m in shape], indexing="ij"), axis=-1
    ).reshape(total, d)
    pos = coords * h[None, :]

    diag = np.full(total, float(np.sum(2.0 / h**2)), dtype=complex)
    vvals = symbol.potential.value(pos)
    diag = diag + np.atleast_1d(vvals)

    rows, cols, vals = [], [], []
    for ax in range(d):
        nb = coords.copy()
        nb[:, ax] += 1
        wrapped = nb[:, ax] == shape[ax]
        nb_mod = nb.copy()
        nb_mod[wrapped, ax] = 0
        target = idx[tuple(nb_mod.T)]
        # exact line phase on the link [x, x + h_ax e_ax]
        if d == 2 and b != 0.0:
            if ax == 0:
                link = np.exp(0.5j * b * pos[:, 1] * h[0])
            else:
                link = np.exp(-0.5j * b * pos[:, 0] * h[1])
        else:
            link = np.ones(total, dtype=complex)
        hop = -link / h[ax] ** 2
        if gauge_chi is not None:
            # A -> A + grad(chi), chi periodic over the magnetic cell:
            # each link gains exp(-i (chi(x') - chi(x)))
            chi_src = np.asarray([gauge_chi(p) for p in pos])
            tgt_pos = pos[target]
            chi_tgt = np.asarray([gauge_chi(p) for p in tgt_pos])
            hop = hop * np.exp(1j * (chi_src - chi_tgt))
        if np.any(wrapped):
            a = cell_vecs[ax]
            y = pos[wrapped].copy()
            y[:, ax] = 0.0
            # magnetic-Bloch wrap: u(y + a) = e^{ik_a} e^{i<A(a), y>} u(y)
            if d == 2 and b != 0.0:
                aa = np.array([-0.5 * b * a[1], 0.5 * b * a[0]])
                chi = y @ aa
            else:
                chi = np.zeros(y.shape[0])
            hop = hop.astype(complex)
            hop[wrapped] *= np.exp(1j * (k[ax] + chi))
        rows.append(np.arange(total))
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
        dense = M.toarray() - np.diag(np.atleast_1d(vvals))
        root = hermitian_sqrt(dense + np.eye(total))
        M = sp.csr_matrix(root + np.diag(np.atleast_1d(vvals)))
    return M


def _fd_box(
    symbol: PeriodicSymbol,
    field: MagneticField | None,
    length: float,
    n: int,
) -> sp.csr_matrix:
    """Dirichlet FD matrix on [-length/2, length/2)^d."""
    lat = symbol.lattice
    d = lat.dim
    if n < 16:
        raise GridTooCoarseError("need at least 16 points per direction")
    b = field.strength if field is not None else 0.0
    h = length / n
    shape = (n,) * d
    total = n**d
    idx = np.arange(total).reshape(shape)
    coords = np.stack(
        np.meshgrid(*[np.arange(n)] * d, indexing="ij"), axis=-1
    ).reshape(total, d)
    pos = -0.5 * length + coords * h

    diag = np.full(total, 2.0 * d / h**2, dtype=complex)
    diag = diag + np.atleast_1d(symbol.potential.value(pos))
    rows, cols, vals = [], [], []
    for ax in range(d):
        keep = coords[:, ax] + 1 < n
        src = idx.reshape(-1)[keep]
        nb = coords[keep].copy()
        nb[:, ax] += 1
        tgt = idx[tuple(nb.T)]
        if d == 2 and b != 0.0:
            if ax == 0:
                link = np.exp(0.5j * b * pos[keep, 1] * h)
            else:
                link = np.exp(-0.5j * b * pos[keep, 0] * h)
        else:
            link = np.ones(src.size, dtype=complex)
        rows.append(src)
        cols.append(tgt)
        vals.append(-link / h**2)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    return sp.coo_matrix(
        (np.concatenate([vals, np.conj(vals), diag]),
         (np.concatenate([rows, cols, np.arange(total)]),
          np.concatenate([cols, rows, np.arange(total)]))),
        shape=(total, total),
    ).tocsr()


class WindowCoverageError(RuntimeError):
    """The eigensolver could not certify that it found the whole window."""


def _window_eigs(M: sp.csr_matrix, window, n_eigs: int) -> np.ndarray:
    """Eigenvalues of the sparse Hermitian matrix intersected with window.

    Up to 600 unknowns the matrix is diagonalized densely.  Larger
    matrices use shift-invert Lanczos at the window centre sigma, which
    returns the k eigenvalues nearest sigma.  Once the farthest of them
    lies beyond the window radius max(hi - sigma, sigma - lo), every
    eigenvalue in the window is among them; until then k doubles from
    n_eigs.  WindowCoverageError is raised when the certificate still
    fails at k = size // 8: past that Lanczos costs more than a dense
    solve, and the window holds far more than the few bands a reference
    solve resolves.
    """
    lo, hi = window
    size = M.shape[0]
    if size <= 600:
        vals = np.linalg.eigvalsh(M.toarray())
        return vals[(vals >= lo) & (vals <= hi)]
    k_max = size // 8
    k = min(n_eigs, k_max)
    sigma, moved = 0.5 * (lo + hi), False
    # a fixed generic start vector makes reruns bit-identical
    v0 = np.random.default_rng(0).standard_normal(size) + 0j
    while True:
        try:
            vals = spla.eigsh(M, k=k, sigma=sigma, which="LM", v0=v0,
                              return_eigenvectors=False)
        except RuntimeError as exc:
            if isinstance(exc, spla.ArpackError) or moved:
                raise
            # sigma is an eigenvalue, so M - sigma has no LU factors: move
            # sigma once, staying inside the window
            sigma, moved = lo + 0.5 * (hi - lo) * (1.0 + 1.0 / np.pi), True
            continue
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
    uniform magnetic-momentum grid; zero_field_bloch reuses the
    plane-wave band solver; box mode takes the Dirichlet matrix as is.
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

    kpts = momentum_grid(disc.symbol.lattice.dim, k_resolution)
    # a simple band in the window splits into q subbands: room for their q
    # eigenvalues per fiber and the ones beyond the window that certify it
    n_eigs = max(8, 2 * disc.flux.denominator)
    clouds = []
    for k in kpts:
        M = disc.bloch_matrix(k)
        clouds.append(_window_eigs(M, window, n_eigs=n_eigs))
    pts = np.concatenate(clouds) if clouds else np.empty(0)
    return SpectrumSet(points=pts, window=window, merge_tol=merge_tol)
