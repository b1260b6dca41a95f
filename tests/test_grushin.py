import json
import re

import numpy as np
import pytest

from peierls import grushin
from peierls.bloch import FiberAssembler, FiberMatrix, assemble_fiber_matrix
from peierls.cli import main
from peierls.grushin import (
    NearSingularError,
    assemble_grushin,
    invert_grushin,
    trial_from_section,
)
from peierls.section import transport_section


@pytest.fixture(scope="module")
def mathieu_family(mathieu_bands):
    sec = transport_section(mathieu_bands)
    return trial_from_section(sec)


def test_trial_from_section_shape(mathieu_family, mathieu_bands):
    fam = mathieu_family
    assert fam.shape == (
        mathieu_bands.grid.resolution ** mathieu_bands.grid.dim,
        mathieu_bands.shell.size,
        1,
    )
    norms = np.linalg.norm(fam[:, :, 0], axis=1)
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


def test_invert_grushin_near_singular_guard(mathieu, mathieu_bands,
                                            mathieu_family, monkeypatch):
    fm = assemble_fiber_matrix(mathieu, mathieu_bands.grid.points()[0],
                               mathieu_bands.shell)
    gm = assemble_grushin(fm, 0.0, mathieu_family, 0)
    monkeypatch.setattr(grushin, "COND_MAX", 1.0)
    with pytest.raises(NearSingularError):
        invert_grushin(gm)


def test_stacked_inverse_equals_the_per_sample_inverses(
    mathieu, mathieu_bands, mathieu_family
):
    pts = mathieu_bands.grid.points()
    rng = np.random.default_rng(5)
    idx = rng.integers(0, pts.shape[0], size=12)
    lams = rng.uniform(-1.0, 0.5, size=12)
    stack = FiberMatrix(xi=pts[idx],
                        entries=FiberAssembler(mathieu, mathieu_bands.shell)(
                            pts[idx]))
    inv = invert_grushin(assemble_grushin(stack, lams, mathieu_family, idx))
    each = [invert_grushin(assemble_grushin(
        assemble_fiber_matrix(mathieu, pts[i], mathieu_bands.shell), lam,
        mathieu_family, i)) for i, lam in zip(idx, lams)]
    assert np.array_equal(inv.e_minus_plus,
                          np.stack([one.e_minus_plus for one in each]))
    assert inv.condition_number == max(one.condition_number for one in each)
    assert inv.residual == max(one.residual for one in each)
    assert type(inv.condition_number) is float


def test_stacked_guard_names_the_first_singular_sample(
    mathieu, mathieu_bands, mathieu_family, monkeypatch
):
    # at lambda on band 1 the complement of the section is singular; on
    # band 0, the section's own band, the bordered matrix is not
    pts = mathieu_bands.grid.points()
    idx = np.array([3, 9, 12])
    lams = mathieu_bands.bands[idx, [0, 1, 1]]
    stack = FiberMatrix(xi=pts[idx],
                        entries=FiberAssembler(mathieu, mathieu_bands.shell)(
                            pts[idx]))
    gm = assemble_grushin(stack, lams, mathieu_family, idx)
    with pytest.raises(NearSingularError,
                       match=re.escape(f"lambda={float(lams[1])}") + "$"):
        invert_grushin(gm)
    monkeypatch.setattr(grushin, "COND_MAX", 1.0)
    with pytest.raises(NearSingularError,
                       match=re.escape(f"lambda={float(lams[0])}") + "$"):
        invert_grushin(gm)


def test_grushin_report_equals_the_per_sample_loop(
    mathieu, mathieu_bands, mathieu_family, tmp_path
):
    # the CLI's stacked solve against the loop it replaced: one matrix per
    # draw of (i, lambda), in the seed's order; at seed 2, np.abs of the
    # deviations rounds the largest modulus unlike the scalar abs
    cfg = {
        "lattice": {"basis": [[2.0 * np.pi]]},
        "symbol": {"kind": "nonrelativistic",
                   "potential": {"name": "cosine", "amplitude": 0.5}},
        "numerics": {"cutoff": 8.0, "resolution": 64, "n_bands": 3},
        "seed": 2, "samples": 20,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["grushin", "--config", str(path), "--out",
                 str(tmp_path)]) == 0
    report = json.loads((tmp_path / "grushin.json").read_text())
    # the fixture's symbol, grid, shell and bands are the config's
    rng = np.random.default_rng(2)
    pts = mathieu_bands.grid.points()
    band = mathieu_bands.bands[:, 0]
    assemble = FiberAssembler(mathieu, mathieu_bands.shell)
    worst_resid = worst_dev = 0.0
    for _ in range(20):
        i = int(rng.integers(0, pts.shape[0]))
        lam = float(rng.uniform(band.min() - 0.5, band.max() + 0.5))
        inv = invert_grushin(assemble_grushin(
            FiberMatrix(xi=pts[i], entries=assemble(pts[i])),
            lam, mathieu_family, i))
        worst_resid = max(worst_resid, inv.residual)
        worst_dev = max(worst_dev,
                        abs(inv.e_minus_plus[0, 0] - (lam - band[i])))
    assert report == {"max_residual": worst_resid,
                      "max_effective_deviation": worst_dev, "samples": 20}
