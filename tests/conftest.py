import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import Phase, settings

from peierls.lattice import (Lattice, bz_grid, dual_shell, magnetic_momenta,
                             tensor_grid)
from peierls.symbols import (
    Nonrelativistic,
    PeriodicSymbol,
    cosine_potential,
    separable_cosine_2d,
)

# The same examples on every run: a tier-1 result does not depend on the
# draw.  Each test keeps its own max_examples and deadline.  A failure is
# reported as drawn, not shrunk: every shrink step of the expensive tests
# rebuilds a fiber and its dense reference, and shrinking ran for minutes.
settings.register_profile(
    "derandomized", derandomize=True,
    phases=[phase for phase in Phase if phase is not Phase.shrink])
settings.load_profile("derandomized")


@pytest.fixture(autouse=True)
def no_kept_band_solve():
    """Every test starts with no band solve kept by the CLI, so a command
    solves its bands under the test's own patches whatever ran before."""
    from peierls import cli

    cli._last_solve = None


@pytest.fixture(scope="session")
def lat1():
    return Lattice(basis=np.array([[2.0 * np.pi]]))


@pytest.fixture(scope="session")
def lat2():
    return Lattice(basis=2.0 * np.pi * np.eye(2))


@pytest.fixture(scope="session")
def mathieu(lat1):
    """d=1 fixture: -d^2/dy^2 + cos(y) on a 2*pi-periodic cell."""
    return PeriodicSymbol(Nonrelativistic(), cosine_potential(lat1, 0.5))


@pytest.fixture(scope="session")
def separable(lat2):
    """d=2 fixture: -Laplace + cos(y1) + cos(y2)."""
    return PeriodicSymbol(Nonrelativistic(), separable_cosine_2d(lat2, 0.5))


# The shared band grids are solved with the BLAS at one thread, as the CLI
# and the acceptance criteria solve theirs: a session fixture is built
# before a module's fixtures, so the acceptance module's pin comes too late
@pytest.fixture(scope="session")
def mathieu_bands(mathieu, lat1):
    from peierls.bloch import compute_bands, one_blas_thread

    grid = bz_grid(lat1, 64)
    shell = dual_shell(lat1, 8.0)
    with one_blas_thread():
        return compute_bands(mathieu, grid, shell, 3, 0)


@pytest.fixture(scope="session")
def separable_bands(separable, lat2):
    from peierls.bloch import compute_bands, one_blas_thread

    grid = bz_grid(lat2, 32)
    shell = dual_shell(lat2, 8.0)
    with one_blas_thread():
        return compute_bands(separable, grid, shell, 2, 0)


@pytest.fixture(scope="session")
def nn_hoppings():
    """Nearest-neighbor hoppings of the symbol -2cos(xi1) - 2cos(xi2)."""
    from peierls.effective import HoppingSet

    m = np.array([[-1.0 + 0j]])
    return HoppingSet(hoppings={(1, 0): m, (-1, 0): m, (0, 1): m, (0, -1): m},
                      asymmetry=0.0)


@pytest.fixture(scope="session")
def representative_rows():
    """rows(dim, q, r): for each point j of the grid 2 pi j / r, in C order,
    the row of magnetic_momenta(dim, q, r) in its class: the one momentum
    of equal k1 whose k2 differs from that of j by a multiple of 2 pi/q,
    modulo 2 pi."""
    def rows(dim, q, r):
        j = tensor_grid([np.arange(r)] * dim)
        reps = np.rint(magnetic_momenta(dim, q, r) * r / (2.0 * np.pi)
                       ).astype(int)
        same = np.all(j[:, None, :-1] == reps[None, :, :-1], axis=-1)
        same &= (q * (j[:, None, -1] - reps[None, :, -1])) % r == 0
        assert np.all(same.sum(axis=1) == 1)
        return np.argmax(same, axis=1)
    return rows


@pytest.fixture(scope="session")
def coefficients():
    """terms(op): {shift: C_s as a CSR matrix} of a magnetic.BlochOperator,
    read from its pattern and per-shift data."""
    def terms(op):
        size = op.indptr.size - 1
        out = {}
        for shift, at, data in zip(op.shifts, op.at, op.data):
            values = np.zeros(op.indices.size, dtype=complex)
            values[at] = data
            out[tuple(shift)] = sp.csr_matrix(
                (values, op.indices, op.indptr), shape=(size, size))
        return out
    return terms


@pytest.fixture(scope="session")
def gauged_stencil():
    """stencil(disc, chi): the FD stencil of the DirectDiscretization disc
    in the gauge A + grad(chi) of the CHI_CATALOG key chi, built by
    direct._fd_stencil on disc's grid; chi None gives disc's own."""
    from peierls import direct
    from peierls.magnetic import VectorPotential, field_for_flux

    def stencil(disc, chi):
        if chi is None:
            return disc._stencil
        lattice, n = disc.symbol.lattice, disc.points_per_cell
        shape = (disc.flux.denominator * n,) + (n,) * (lattice.dim - 1)
        A = VectorPotential(field_for_flux(disc.flux, lattice), chi)
        return direct._fd_stencil(disc.symbol, A, np.diag(lattice.basis) / n,
                                  shape)
    return stencil


@pytest.fixture
def blas_threads():
    """set(n): every OpenBLAS copy that peierls.bloch controls at n
    threads; each gets the count it had before the test back after it."""
    from peierls import bloch

    controls = list(bloch._blas_controls().values())
    if not controls:
        pytest.skip("no OpenBLAS thread controls")
    counts = [get() for _, get in controls]

    def set_threads(n):
        for set_, _ in controls:
            set_(n)
    yield set_threads
    for (set_, _), count in zip(controls, counts):
        set_(count)
