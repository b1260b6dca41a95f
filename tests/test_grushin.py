import numpy as np
import pytest

from peierls.bloch import assemble_fiber_matrix
from peierls.grushin import (
    NearSingularError,
    assemble_grushin,
    invert_grushin,
    trial_from_section,
)
from peierls.section import transport_section


@pytest.fixture(scope="module")
def mathieu_family(mathieu_bands):
    sec = transport_section(mathieu_bands, 0)
    return trial_from_section(sec)


def test_trial_from_section_shape(mathieu_family, mathieu_bands):
    fam = mathieu_family
    assert fam.n == 1
    assert fam.vectors.shape == (
        mathieu_bands.grid.resolution ** mathieu_bands.grid.dim,
        mathieu_bands.shell.size,
        1,
    )
    norms = np.linalg.norm(fam.vectors[:, :, 0], axis=1)
    assert np.allclose(norms, 1.0, atol=1e-10)


def test_grushin_inverse_identity_and_effective_block(
    mathieu, mathieu_bands, mathieu_family
):
    grid = mathieu_bands.grid
    pts = grid.points()
    rng = np.random.default_rng(11)
    for _ in range(6):
        i = int(rng.integers(0, pts.shape[0]))
        lam = float(rng.uniform(-1.0, 0.5))
        fm = assemble_fiber_matrix(mathieu, pts[i], mathieu_bands.shell)
        gm = assemble_grushin(fm, lam, mathieu_family, i)
        inv = invert_grushin(gm)
        assert inv.residual < 1e-10
        # the effective block of a simple-band section is lambda - lambda_1
        expected = lam - mathieu_bands.bands[i, 0]
        assert abs(inv.e_minus_plus[0, 0] - expected) < 1e-10


def test_grushin_schur_complement(mathieu, mathieu_bands, mathieu_family):
    i = 5
    lam = 2.0  # away from every eigenvalue of H(xi), so H - lam is invertible
    fm = assemble_fiber_matrix(mathieu, mathieu_bands.grid.points()[i],
                               mathieu_bands.shell)
    gm = assemble_grushin(fm, lam, mathieu_family, i)
    inv = invert_grushin(gm)
    # E_minus_plus^{-1} = -Phi^* (H - lam)^{-1} Phi when H - lam is invertible
    phi = gm.border
    schur = -np.conj(phi.T) @ np.linalg.solve(gm.top_left, phi)
    assert np.allclose(np.linalg.inv(inv.e_minus_plus), schur, atol=1e-8)


def test_invert_grushin_near_singular_guard(mathieu, mathieu_bands, mathieu_family):
    fm = assemble_fiber_matrix(mathieu, mathieu_bands.grid.points()[0],
                               mathieu_bands.shell)
    gm = assemble_grushin(fm, 0.0, mathieu_family, 0)
    with pytest.raises(NearSingularError):
        invert_grushin(gm, cond_max=1.0)
