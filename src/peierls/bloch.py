"""Floquet fiber matrices in a truncated plane-wave basis and band functions.

The fiber at momentum xi acts on coefficients of Gamma-periodic functions
u = sum_{gamma*} c_{gamma*} exp(i<gamma*, y>):

    H(xi)[g, b] = kinetic(xi + g) * delta_{gb} + V_hat(g - b)

When every Fourier coefficient is real (for a real potential, one that is
even about the origin, as in the cosine fixtures) H(xi) is real symmetric:
FiberAssembler then builds float64 fibers, and compute_bands solves them with
LAPACK's real-symmetric MRRR routine ?syevr instead of the complex Hermitian
?heevr (Dhillon, Parlett & Voemel, ACM TOMS 32, 533 (2006)).  Every fiber
goes through one handle: the routine's C function in scipy.linalg.cython_lapack,
called through ctypes with the arguments eigh(subset_by_index=...) passes
(range "I", the lower triangle, abstol 0, the workspace LAPACK asks for).  The
bands and vectors equal eigh's bit for bit, without its per-call checks and
copies, and ctypes releases the GIL for the length of each call, so threads
solve fibers side by side.

At zero field the fibers share the symbol's point group: the integer maps
R of dual coefficients, c -> c R (|det R| = 1, entries in {-1, 0, 1}), whose
Cartesian form Q = D^-1 R D (D the dual basis) is orthogonal, which permute
the shell and with V_hat(k R) = V_hat(k) for every Fourier coefficient.
Both kinetic kinds depend on |eta| alone, so H(xi Q) = P_R H(xi) P_R^T
exactly in the truncated basis, and v[perm_R] is an eigenvector at xi Q.
Time reversal (V is real, V_hat(-g) = conj(V_hat(g))) adds the antiunitary
images -R, with eigenvectors conj(v[perm_-R]).  compute_bands solves one
point of each orbit of the grid under {R, -R} and fills in the others: 45
of the 256 points of a 16^2 grid for the square separable cosine, 144 with
time reversal alone, 33 of 64 in d=1.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.linalg.cython_lapack

from .lattice import BZGrid, DualShell, InputError, tensor_grid
from .symbols import PeriodicSymbol


# Values plus vector entries one band grid may store, n_points (n_bands + M)
# with one band's vectors, and entries of one fiber: 2**24 complex entries
# are 0.27 GB.  A 48^2 grid at cutoff 8 (basis size M = 197) with 4 bands
# and one band's vectors stores 4.6e5; a fiber admits a basis of 4,096
# members (cutoff 36 on the 2 pi square lattice).
MAX_BAND_ENTRIES = 2**24

GAP_TOL = 1e-6  # band_intervals' default gap_tol

# solves x (basis size)^3 that one thread must hold to repay its start
# (80-105 us): three fibers of basis size 113, about 1.2 ms of ?syevr
THREAD_WORK = 2**22


class EigensolverError(RuntimeError):
    def __init__(self, xi, message):
        super().__init__(f"{message} at xi={np.asarray(xi)}")
        self.xi = np.asarray(xi)


@dataclass(frozen=True)
class FiberMatrix:
    """H(xi), or the fibers at a stack of momenta along a leading axis."""

    xi: np.ndarray  # (d,) or (S, d)
    entries: np.ndarray  # (M, M) or (S, M, M)

    @property
    def size(self) -> int:
        return self.entries.shape[-1]


class FiberAssembler:
    """H(xi) for one (symbol, shell), built from parts computed once.

    The V_hat block does not depend on xi and is built once, so each fiber
    is a copy of it plus kinetic(xi + gamma*) on the diagonal.  When every
    Fourier coefficient is exactly real, H(xi) is real symmetric and the
    fibers are float64; otherwise they are complex Hermitian.
    """

    def __init__(self, symbol: PeriodicSymbol, shell: DualShell):
        if shell.size == 0:
            raise InputError("empty dual shell")
        if shell.size**2 > MAX_BAND_ENTRIES:
            raise InputError(
                f"a fiber of basis size {shell.size} has {shell.size**2} "
                f"entries, more than the limit {MAX_BAND_ENTRIES}")
        self.symbol = symbol
        self._gammas = shell.members @ symbol.lattice.dual  # gamma* rows
        coeffs = symbol.potential.coeffs
        real = all(val.imag == 0 for val in coeffs.values())
        self.dtype = np.dtype(float if real else complex)
        self._block = np.zeros((shell.size,) * 2, dtype=self.dtype)
        for key, val in coeffs.items():
            # the index pairs (g, b) with g - b == key
            cols = shell.permutation(np.eye(len(key), dtype=int),
                                     np.negative(key))
            rows = np.flatnonzero(cols >= 0)
            self._block[rows, cols[rows]] += val.real if real else val

    def __call__(self, xi) -> np.ndarray:
        """H(xi) for one xi (d,), or the fibers (n, M, M) at the rows of
        xi (n, d)."""
        kinetic = self.diagonals(xi)
        H = np.repeat(self._block[None], len(kinetic), axis=0)
        diag = np.arange(H.shape[-1])
        H[:, diag, diag] += kinetic
        return H if np.ndim(xi) > 1 else H[0]

    def diagonals(self, xi) -> np.ndarray:
        """kinetic(xi_i + gamma*) for the rows xi_i of xi (n, d): (n, M)."""
        d = self._gammas.shape[1]
        eta = np.asarray(xi, dtype=float).reshape(-1, 1, d) + self._gammas
        return self.symbol.kinetic(eta.reshape(-1, d)).reshape(eta.shape[:2])

    def apply(self, xi, vecs) -> np.ndarray:
        """H(xi_i) v_i for the rows xi_i of xi (n, d) and v_i of vecs (n, M)."""
        kinetic = self.diagonals(xi)
        # a real block takes two real products: the complex product of a
        # complex v with the real block raised a d=2 run's peak RSS by 0.5 MB
        hv = (vecs.real @ self._block.T + 1j * (vecs.imag @ self._block.T)
              if self.dtype == float else vecs @ self._block.T)
        return hv + kinetic * vecs


# the integer maps with entries in {-1, 0, 1}; an orthogonal one has |det| = 1
_CANDIDATES = {d: tensor_grid([(-1, 0, 1)] * d * d).reshape(-1, d, d)
               for d in (1, 2)}


def point_group(symbol: PeriodicSymbol, shell: DualShell):
    """The maps M (n, d, d) of the grid fold, on fractional coordinates.

    Returns them with their shell perms (n, M), members[perm[i]] ==
    members[i] @ M^-1, and conj (n,): the eigenvector at xi M is v[perm],
    conjugated where -M is a symmetry, so -I always acts as time reversal.
    """
    lat, coeffs = symbol.lattice, symbol.potential.coeffs
    d = lat.dim
    q = np.linalg.inv(lat.dual) @ _CANDIDATES[d] @ lat.dual
    ortho = np.abs(q @ q.swapaxes(1, 2) - np.eye(d)).max(axis=(1, 2)) <= 1e-12
    cand = _CANDIDATES[d][ortho]
    perms = shell.permutation(np.linalg.inv(cand).round().astype(int))
    keys = np.array(list(coeffs), dtype=int).reshape(-1, d)
    vals = np.array(list(coeffs.values()), dtype=complex)
    # k M is a key of the same value as k, for every key k: M, then -M
    hit = np.all((keys @ np.concatenate([cand, -cand]))[:, :, None] == keys, -1)
    keeps = np.all(np.any(hit & (vals[:, None] == vals), -1), -1)
    unitary, conj = keeps.reshape(2, -1) & np.all(perms >= 0, axis=1)
    fold = unitary | conj
    return cand[fold], perms[fold], conj[fold]


def assemble_fiber_matrix(
    symbol: PeriodicSymbol, xi, shell: DualShell
) -> FiberMatrix:
    """One complex fiber H(xi) for xi (d,), or the fibers (S, M, M) at the
    rows of a stack xi (S, d); loops over many xi use FiberAssembler."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    entries = FiberAssembler(symbol, shell)(xi).astype(complex, copy=False)
    return FiberMatrix(xi=xi, entries=entries)


def negation_permutation(shell: DualShell) -> np.ndarray:
    """perm with member[perm[i]] == -member[i] (shells are negation-closed)."""
    return shell.permutation(-np.eye(shell.lattice.dim, dtype=int))


def conj_reflect(vec: np.ndarray, neg_perm: np.ndarray) -> np.ndarray:
    """(C v)[b] = conj(v[-b]), for v of shape (M,) or (M, n)."""
    return np.conj(vec[neg_perm])


def _lapack(name: str, nargs: int):
    """LAPACK's routine name from scipy.linalg.cython_lapack, as a ctypes
    function of nargs pointers that releases the GIL while it runs."""
    capsule = scipy.linalg.cython_lapack.__pyx_capi__[name]
    signature = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))(capsule)
    address = ctypes.PYFUNCTYPE(
        ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))(capsule, signature)
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * nargs)(address)


# per fiber dtype: the MRRR routine's name, its handle and the dtypes of its
# workspaces, each of which takes a pointer and a length
_MRRR = {np.dtype(float): ("syevr", _lapack("dsyevr", 21),
                           (np.float64, np.int32)),
         np.dtype(complex): ("heevr", _lapack("zheevr", 23),
                             (np.complex128, np.float64, np.int32))}

# the arguments that LAPACK only reads and every call shares: the flags jobz
# ("V" or "N"), range "I" and uplo "L", il = 1, and abstol = 0, which also
# stands for vl and vu (range "I" reads neither)
_FLAGS = ctypes.create_string_buffer(b"VNIL")
_ONE, _ZERO = ctypes.c_int(1), ctypes.c_double(0.0)
_V, _N, _RANGE, _UPLO = (ctypes.addressof(_FLAGS) + k for k in range(4))
_IL, _ABSTOL = ctypes.addressof(_ONE), ctypes.addressof(_ZERO)


def _buffers(dtype: np.dtype, size: int, n_bands: int, jobz: int,
             lengths) -> tuple:
    """The MRRR routine's arrays (a, w, z, isuppz, workspaces), its int32
    scalars (n, iu, workspace lengths, m, info) and its arguments: jobz,
    range, uplo, n, a, lda, vl, vu, il, iu, abstol, m, w, z, ldz, isuppz,
    each workspace and its length, info."""
    ints = np.array([size, n_bands, *lengths, 0, 0], dtype=np.int32)
    arrays = [np.empty((size, size), dtype, order="F"), np.empty(size),
              np.empty((size, n_bands), dtype, order="F"),
              np.empty(2 * size, np.int32),
              *map(np.empty, np.maximum(lengths, 1), _MRRR[dtype][2])]
    n, iu, *lens, m, info = range(ints.ctypes.data,
                                  ints.ctypes.data + ints.nbytes, 4)
    a, w, z, isuppz, *works = (array.ctypes.data for array in arrays)
    spaces = [arg for pair in zip(works, lens) for arg in pair]
    return arrays, ints, (jobz, _RANGE, _UPLO, n, a, n, _ABSTOL, _ABSTOL,
                          _IL, iu, _ABSTOL, m, w, z, n, isuppz, *spaces, info)


@functools.lru_cache(maxsize=64)
def _workspace(dtype: np.dtype, size: int) -> tuple:
    """The workspace lengths that the routine asks for at basis size size,
    which eigh queries again at every call."""
    arrays, _, args = _buffers(dtype, size, 1, _N, [-1] * len(_MRRR[dtype][2]))
    _MRRR[dtype][1](*args)
    return tuple(int(work[0].real) for work in arrays[4:])


@functools.cache
def _blas_controls() -> dict:
    """{module: (set, get)}: OpenBLAS's thread count functions, by ctypes
    through the extensions that link it; none under MKL or a system BLAS."""
    controls = {}
    for name, module, suffix in (("scipy", scipy.linalg.cython_lapack, ""),
                                 ("numpy", np.linalg._umath_linalg, "64_")):
        lib = ctypes.CDLL(module.__file__)
        with contextlib.suppress(AttributeError):
            controls[name] = (lib[f"scipy_openblas_set_num_threads{suffix}"],
                              lib[f"scipy_openblas_get_num_threads{suffix}"])
            controls[name][0].argtypes = [ctypes.c_int]
    return controls


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with every OpenBLAS found at one thread, then restore."""
    with contextlib.ExitStack() as restore:
        for set_, get in _blas_controls().values():
            restore.callback(set_, get())
            set_(1)
        yield


def _workers() -> int:
    """Threads for the band fibers: every core beside a one-thread scipy
    OpenBLAS, else one.  Fiber threads beside a two-thread BLAS were slower:
    0.24 -> 0.30 s for a 32^2 grid at cutoff 8, on two cores."""
    control = _blas_controls().get("scipy")
    return len(os.sched_getaffinity(0)) if control and control[1]() == 1 else 1


@dataclass(frozen=True)
class BandStructure:
    grid: BZGrid
    shell: DualShell
    bands: np.ndarray  # (n_points, n_bands), ascending per point
    vectors: np.ndarray | None  # (n_points, M), one band's, fiber dtype
    solved: int  # fibers diagonalized, one per orbit of the grid


def compute_bands(
    symbol: PeriodicSymbol,
    grid: BZGrid,
    shell: DualShell,
    n_bands: int,
    vector_band: int | None = None,
    workers: int | None = None,
) -> BandStructure:
    """The lowest n_bands eigenvalues at every grid point, and the
    eigenvectors of band vector_band (0-based) when it is given.

    One point of each orbit of the point group is solved, the lowest in
    flat order (grid.orbits); the others get its eigenvalues and its
    vector mapped by one gather per group element.  Every solve returns
    the vectors of all n_bands bands, as eigh does, and only the column of
    vector_band is kept.
    The kinetic diagonals of the solved points are evaluated at once.  The
    solved points are split into contiguous chunks, at most workers
    (default _workers()) and each of THREAD_WORK or more: this thread
    solves the first, worker threads the others.  Each chunk fills its
    fibers into its own Fortran-ordered buffer that ?syevr or ?heevr
    (range "I", lower triangle) overwrites, so no result depends on the
    thread.  The kept vectors have the fiber's dtype, float64 for a real
    fiber.  A non-finite fiber, checked before any solve, or a LAPACK
    failure raises EigensolverError naming its xi, the lowest in flat
    order.
    """
    if n_bands > shell.size:
        raise InputError("n_bands exceeds the plane-wave basis size")
    keep = vector_band is not None
    if keep and not 0 <= vector_band < n_bands:
        raise InputError(f"vector_band {vector_band} is not one of the "
                         f"{n_bands} bands computed")
    n_points = grid.resolution ** grid.dim
    entries = n_points * (n_bands + (shell.size if keep else 0))
    if entries > MAX_BAND_ENTRIES:
        raise InputError(
            f"the band grid stores {entries} values and vector entries "
            f"({n_points} points, {n_bands} bands, basis size {shell.size}), "
            f"more than the limit {MAX_BAND_ENTRIES}")
    assemble = FiberAssembler(symbol, shell)
    name, evr, _ = _MRRR[assemble.dtype]
    lengths = _workspace(assemble.dtype, shell.size)
    points = grid.points()
    maps, perms, conj = point_group(symbol, shell)
    source, element = grid.orbits(maps)
    copied = source != np.arange(n_points)
    solved = np.flatnonzero(~copied)
    diagonals = assemble.diagonals(points[solved])
    finite = np.isfinite(diagonals).all(axis=1) & np.isfinite(
        assemble._block).all()
    if not finite.all():
        raise EigensolverError(points[solved[np.argmin(finite)]],
                               "non-finite fiber")
    bands = np.empty((n_points, n_bands))
    vectors = (np.empty((n_points, shell.size), assemble.dtype) if keep
               else None)
    block_diag = assemble._block.diagonal().copy()

    def solve(rows, arrays, ints, args):
        """Solve the fibers solved[rows]: None, or the first failing row
        and its info."""
        H, w, z = arrays[:3]
        diag = H.reshape(-1, order="F")[:: shell.size + 1]
        for row in rows:
            np.copyto(H, assemble._block)
            np.add(block_diag, diagonals[row], out=diag)
            evr(*args)
            if ints[-1] != 0:
                return row, int(ints[-1])
            bands[solved[row]] = w[:n_bands]
            if keep:
                vectors[solved[row]] = z[:, vector_band]
        return None

    work = solved.size * shell.size**3
    chunks = (min(work // THREAD_WORK, workers or _workers())
              if work >= 2 * THREAD_WORK else 1)
    jobs = [(range(solved.size * k // chunks, solved.size * (k + 1) // chunks),
             *_buffers(assemble.dtype, shell.size, n_bands,
                       _V if keep else _N, lengths))
            for k in range(chunks)]
    if chunks == 1:
        results = [solve(*jobs[0])]
    else:
        with ThreadPoolExecutor(chunks - 1) as pool:
            futures = [pool.submit(solve, *job) for job in jobs[1:]]
            results = [solve(*jobs[0]),
                       *(future.result() for future in futures)]
    failed = [result for result in results if result is not None]
    if failed:
        row, info = min(failed)
        raise EigensolverError(points[solved[row]], f"LAPACK {name} info={info}")
    bands = bands[source]
    for g in range(len(maps) if keep else 0):
        idx = np.flatnonzero(copied & (element == g))
        image = vectors[source[idx, None], perms[g]]
        vectors[idx] = np.conj(image, out=image) if conj[g] else image
    return BandStructure(grid=grid, shell=shell, bands=bands, vectors=vectors,
                         solved=solved.size)


@dataclass(frozen=True)
class BandIntervals:
    intervals: np.ndarray  # (n_bands, 2) [min, max]
    simple_flags: np.ndarray  # (n_bands,) bool


def band_intervals(bands: BandStructure, gap_tol=GAP_TOL) -> BandIntervals:
    """Per-band [min, max] over the grid plus simplicity flags.

    A band is flagged simple when its range clears the ranges of the
    bands below and above it by more than gap_tol.  Each row of the band
    table is ascending, so such a band is disjoint from every other band
    range and separated from its neighbors by more than gap_tol at every
    grid point.  The last computed band is never flagged: nothing shows
    it disjoint from the bands above it.
    """
    lo, hi = bands.bands.min(axis=0), bands.bands.max(axis=0)
    # clear[k]: the range of band k + 1 starts more than gap_tol above the
    # end of band k's; band k needs clear[k] and, above band 0, clear[k - 1]
    clear = hi[:-1] < lo[1:] - gap_tol
    flags = np.append(clear, False) & np.insert(clear, 0, True)
    return BandIntervals(intervals=np.stack([lo, hi], axis=-1),
                         simple_flags=flags)
