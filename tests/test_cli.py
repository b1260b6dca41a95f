import json
import math
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from peierls import bloch, cli, direct, effective, grushin, lattice
from peierls.cli import main
from peierls.lattice import InputError, bz_grid, dual_shell
from peierls.magnetic import field_for_flux
from peierls.section import transport_section
from peierls.symbols import PeriodicSymbol

BASE_CONFIG = {
    "lattice": {"basis": [[6.283185307179586]]},
    "symbol": {
        "kind": "nonrelativistic",
        "potential": {"name": "cosine", "amplitude": 0.5},
    },
    "numerics": {
        "cutoff": 6.0,
        "resolution": 16,
        "n_bands": 3,
        "radius": 6,
        "band_index": 0,
    },
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE_CONFIG))
    return str(path)


def _run(command, config_path, out, extra=()):
    return main([command, "--config", config_path, "--out", str(out), *extra])


@pytest.fixture
def band_solves(monkeypatch):
    """The (resolution, vector_band) of each bloch.compute_bands call."""
    calls, solve = [], bloch.compute_bands

    def counted(sym, grid, shell, n_bands, vector_band=None, workers=None):
        calls.append((grid.resolution, vector_band))
        return solve(sym, grid, shell, n_bands, vector_band, workers)

    monkeypatch.setattr(bloch, "compute_bands", counted)
    return calls


def test_bands_command_writes_deterministic_csv(config_path, tmp_path,
                                                band_solves):
    out = tmp_path / "run"
    assert _run("bands", config_path, out) == 0
    body = (out / "bands.csv").read_text()
    assert body.splitlines()[0] == "frac1,band,value"
    assert len(body.splitlines()) == 1 + 16 * 3
    meta = json.loads((out / "bands_meta.json").read_text())
    assert meta["command"] == "bands"
    intervals = json.loads((out / "intervals.json").read_text())
    assert intervals["simple"][0] is True
    # rerun without the kept solve: byte-identical output
    cli._last_solve = None
    assert _run("bands", config_path, out) == 0
    assert (out / "bands.csv").read_text() == body
    assert band_solves == [(16, None)] * 2


def test_section_command_reports_holonomy(config_path, tmp_path):
    out = tmp_path / "run"
    assert _run("section", config_path, out) == 0
    kappa = json.loads((out / "kappa.json").read_text())
    assert abs(abs(kappa["phase_log"]["kappa"]) - 3.141592653589793) < 1e-6
    lines = (out / "section.csv").read_text().splitlines()
    assert lines[0] == "frac1,norm,residual,c0_re,c0_im"


def test_grushin_command_verifies_identity(config_path, tmp_path):
    out = tmp_path / "run"
    assert _run("grushin", config_path, out) == 0
    report = json.loads((out / "grushin.json").read_text())
    assert report["max_residual"] < 1e-8
    assert report["max_effective_deviation"] < 1e-8


@pytest.mark.parametrize("command", ["section", "grushin"])
def test_section_and_grushin_carry_the_selected_band(command, tmp_path):
    """At band_index 1 the kept vectors are those of band 1: band 0's would
    leave a residual and an effective-block deviation of about the gap."""
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["numerics"].update(cutoff=8.0, resolution=64, band_index=1)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert _run(command, str(path), tmp_path) == 0
    if command == "section":
        lines = (tmp_path / "section.csv").read_text().splitlines()[1:]
        table = np.array([line.split(",") for line in lines], dtype=float)
        assert table.shape[0] == 64
        assert np.max(np.abs(table[:, 1] - 1.0)) <= 1e-10
        assert np.max(table[:, 2]) <= 1e-8
    else:
        report = json.loads((tmp_path / "grushin.json").read_text())
        assert report["max_residual"] <= 1e-8
        assert report["max_effective_deviation"] <= 1e-8


def test_grushin_stack_is_solved_in_bounded_chunks(tmp_path, monkeypatch):
    # with room for 4 Grushin matrices per solve, 600 samples are solved in
    # 150 stacks: the command peaks near what it does for 4 samples, and
    # reports the bits of one 600-matrix stack
    def run(samples, name):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**BASE_CONFIG, "samples": samples}))
        tracemalloc.start()
        try:
            assert _run("grushin", str(path), tmp_path / name) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return (tmp_path / name / "grushin.json").read_text(), peak

    whole, whole_peak = run(600, "whole")
    solves = []
    invert = grushin.invert_grushin
    monkeypatch.setattr(grushin, "invert_grushin",
                        lambda g: solves.append(len(g.lam)) or invert(g))
    size = len(dual_shell(lattice.Lattice(np.array(
        BASE_CONFIG["lattice"]["basis"])), 6.0).members) + 1
    monkeypatch.setattr(bloch, "MAX_BAND_ENTRIES", 4 * size**2 + 1)
    chunked, chunked_peak = run(600, "chunked")
    assert solves == [4] * 150
    assert chunked == whole
    _, four_peak = run(4, "four")
    # about 0.1 MB against 9.5 MB for the single stack; the 600 draws and
    # Python's bounded tuple free list add some 50 kB
    assert chunked_peak < 2 * four_peak < whole_peak / 20


def test_effective_and_scan_commands(config_path, tmp_path):
    out = tmp_path / "run"
    assert _run("effective", config_path, out) == 0
    spectrum = json.loads((out / "spectrum.json").read_text())
    assert len(spectrum["intervals"]) >= 1
    assert _run("scan", config_path, out) == 0
    lines = (out / "scan.csv").read_text().splitlines()
    assert lines[0] == "lambda,margin"
    assert len(lines) == 401


def _written(tmp_path, command, cfg, name):
    """Run command on cfg in a directory of its own; its file name."""
    out = tmp_path / f"{command}_{len(list(tmp_path.iterdir()))}"
    out.mkdir()
    (out / "cfg.json").write_text(json.dumps(cfg))
    assert _run(command, str(out / "cfg.json"), out) == 0
    return out / name


def test_compare_at_flux_0_sees_one_band_on_both_grids(tmp_path):
    # the Peierls branch (k_resolution 32) and the plane-wave band
    # (direct_k_resolution 8) reach the same band edges, at k = 0 and pi, so
    # the two ranges agree although the grids differ
    cfg = dict(BASE_CONFIG, epsilons=[[0.1, "0"]], direct_k_resolution=8)
    [run] = json.loads(_written(tmp_path, "compare", cfg,
                                "compare.json").read_text())["runs"]
    assert len(run["effective_intervals"]) == len(run["direct_intervals"]) == 1
    assert run["d_H"] <= 1e-10


def test_scan_margin_is_zero_inside_the_band_on_every_grid(tmp_path):
    margins = {}
    for k_res in (32, 64):
        cfg = dict(BASE_CONFIG, k_resolution=k_res)
        table = np.loadtxt(_written(tmp_path, "scan", cfg, "scan.csv"),
                           delimiter=",", skiprows=1)
        [[lo, hi]] = json.loads(_written(tmp_path, "effective", cfg,
                                         "spectrum.json").read_text())[
            "intervals"]
        lam, margins[k_res] = table.T
        inside = (lam >= lo) & (lam <= hi)
        assert inside.any() and not inside.all()
        assert np.all(margins[k_res][inside] == 0.0)
        assert np.all(margins[k_res][~inside] > 0.0)
    assert np.array_equal(margins[32], margins[64])


def test_effective_reports_each_subband_of_the_separable_fixture(tmp_path):
    # q subbands at flux 1/q, gaps narrower than the old merge_tol included
    cfg = {
        "lattice": {"basis": [[2.0 * math.pi, 0.0], [0.0, 2.0 * math.pi]]},
        "symbol": {"potential": {"name": "separable_cosine_2d",
                                 "amplitude": 0.5}},
        "numerics": {"cutoff": 6.0, "resolution": 32, "n_bands": 2,
                     "radius": 8},
    }
    for q in (4, 8, 16):
        spectrum = json.loads(_written(tmp_path, "effective",
                                       dict(cfg, flux=f"1/{q}"),
                                       "spectrum.json").read_text())
        assert spectrum["merge_tol"] == 0.0
        assert len(spectrum["intervals"]) == q


def test_direct_command(config_path, tmp_path):
    out = tmp_path / "run"
    assert _run("direct", config_path, out) == 0
    lines = (out / "eigenvalues.csv").read_text().splitlines()
    assert lines[0] == "value" and len(lines) > 1


# the files of each command besides its <command>_meta.json
RESULTS = {
    "bands": ["bands.csv", "intervals.json"],
    "section": ["kappa.json", "section.csv"],
    "grushin": ["grushin.json"],
    "effective": ["spectrum.json"],
    "scan": ["scan.csv"],
    "direct": ["eigenvalues.csv"],
    "compare": ["compare.json"],
}


def test_each_command_writes_its_own_results(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(BASE_CONFIG, epsilons=[[0.1, "0"]])))
    for command, results in RESULTS.items():
        out = tmp_path / command
        assert _run(command, str(path), out) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [*results, f"{command}_meta.json"])


@pytest.mark.parametrize("flag", [["--flux", "1/4"], ["--mode", "box"],
                                  ["--radius", "5"], ["--window", "0", "1"]])
def test_config_values_have_no_override_flag(flag, config_path, tmp_path,
                                             capsys):
    # the config file is the one source of every value
    with pytest.raises(SystemExit) as info:
        _run("effective", config_path, tmp_path, flag)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


def _per_value_csv(header, rows) -> str:
    """The writer that the column writer replaced: str of a Python int or
    str, f"{x:.17g}" of anything else."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(v) if isinstance(v, (str, int))
                              else f"{float(v):.17g}" for v in row))
    return "\n".join(lines) + "\n"


def _rows(columns) -> list:
    """Rows of the columns as the per-value writer got them: integer
    columns as Python ints, the others as numpy floats."""
    return list(zip(*(col.tolist() if col.dtype.kind in "iu" else col
                      for col in map(np.asarray, columns))))


def test_csv_columns_print_as_the_per_value_writer(tmp_path):
    ints = np.array([0, -3, 7, 2**40, -(2**62), 12], dtype=np.int64)
    floats = np.array([-0.0, 0.0, 1.0 / 3.0, -np.inf, np.nan, 5e-324])
    more = np.array([1e22, -1e-300, 2.5, 100.0, 123456789.123456789, -1.0])
    cli._write_csv(tmp_path / "t.csv", ["i", "x", "y"], [ints, floats, more])
    text = (tmp_path / "t.csv").read_text()
    assert text == _per_value_csv(["i", "x", "y"], _rows([ints, floats, more]))
    assert text.splitlines()[1:3] == ["0,-0,1e+22", "-3,0,-1e-300"]


# the d=2 tables: the bands and the effective operator at flux 1/4
D2_TABLES_CONFIG = {
    "lattice": {"basis": [[6.283185307179586, 0.0], [0.0, 6.283185307179586]]},
    "symbol": {"kind": "nonrelativistic",
               "potential": {"name": "separable_cosine_2d", "amplitude": 0.5}},
    "numerics": {"cutoff": 4.0, "resolution": 8, "n_bands": 4, "radius": 3},
    "flux": "1/4", "k_resolution": 6, "lambda_points": 50,
}


@pytest.mark.parametrize("cfg", [BASE_CONFIG, D2_TABLES_CONFIG],
                         ids=["d1", "d2"])
def test_csv_tables_equal_the_per_value_writer(cfg, tmp_path, monkeypatch):
    # every table the CLI writes, against the per-value text of its columns;
    # bands.csv also against the rows the per-point loop built, and the
    # norm column against the norm of each section vector on its own
    written = {}
    write = cli._write_csv

    def capture(path, header, columns):
        written[path.name] = (header, columns)
        write(path, header, columns)

    monkeypatch.setattr(cli, "_write_csv", capture)
    path = tmp_path / "cfg.json"
    for command, extra in [("bands", {}), ("section", {}), ("effective", {}),
                           ("scan", {}), ("direct", {"flux": "0"})]:
        path.write_text(json.dumps({**cfg, **extra}))
        assert _run(command, str(path), tmp_path) == 0
    assert sorted(written) == ["bands.csv", "eigenvalues.csv", "scan.csv",
                               "section.csv"]
    for name, (header, columns) in written.items():
        assert (tmp_path / name).read_text() == _per_value_csv(
            header, _rows(columns)), name
    num = cli._numerics(cfg)
    lat = cli.build_lattice(cfg)
    bands = cli._bands(cli.build_symbol(cfg, lat), num, 0)
    rows = [list(frac) + [j, bands.bands[i, j]]
            for i, frac in enumerate(bands.grid.coords())
            for j in range(bands.bands.shape[1])]
    assert (tmp_path / "bands.csv").read_text() == _per_value_csv(
        written["bands.csv"][0], rows)
    vectors = transport_section(bands).vectors
    norms = [line.split(",")[lat.dim] for line in
             (tmp_path / "section.csv").read_text().splitlines()[1:]]
    assert norms == [f"{np.linalg.norm(v):.17g}" for v in vectors]


def test_zero_field_bloch_mode_uses_band_solver(mathieu, lat1, tmp_path):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["numerics"].update(n_bands=2, cutoff=8.0)
    cfg.update(direct_k_resolution=16, window=[-0.5, 0.0])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert _run("direct", str(path), tmp_path) == 0
    values = _read_values(tmp_path / "eigenvalues.csv")
    assert abs(min(values) + 0.37848922126213247) < 1e-8
    # one fiber per orbit of the band grid is diagonalized
    solved = bloch.compute_bands(mathieu, bz_grid(lat1, 16),
                                 dual_shell(lat1, 8.0), 2).solved
    meta = json.loads((tmp_path / "direct_meta.json").read_text())
    assert meta["summary"]["direct_fibers"] == solved < 16


def test_compare_command(config_path, tmp_path, monkeypatch):
    cfg = dict(BASE_CONFIG)
    cfg["epsilons"] = [[0.1, "0"], [0.05, "0"], [0.025, "0"]]
    path = tmp_path / "cmp.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert _run("compare", str(path), out) == 0
    report = json.loads((out / "compare.json").read_text())
    assert len(report["runs"]) == 3
    assert "fitted_slope" in report


# the d=2 magnetic cell: direct at flux 1/4 in a window around band 0, on
# one FD fiber; k_resolution sizes the effective cloud of the tests that
# build one
D2_CONFIG = {
    "lattice": {"basis": [[6.283185307179586, 0.0], [0.0, 6.283185307179586]]},
    "symbol": {
        "kind": "nonrelativistic",
        "potential": {"name": "separable_cosine_2d", "amplitude": 0.5},
    },
    "numerics": {"cutoff": 4.0, "resolution": 8, "n_bands": 2},
    "flux": "1/4",
    "window": [-0.83, -0.29],
    "k_resolution": 1,
    "direct_k_resolution": 1,
}

COMPARE_CONFIG = dict(D2_CONFIG, epsilons=[[0.08, "1/4"]],
                      numerics={**D2_CONFIG["numerics"], "radius": 3})

D2_BLOCH = dict(D2_CONFIG, numerics={**D2_CONFIG["numerics"], "radius": 3})


def test_config_error_antisymmetry(tmp_path, capsys):
    # the field is the flux's scalar b12, antisymmetric by construction; a
    # field matrix, which could be symmetric, is refused as a key that no
    # command reads
    cfg = dict(D2_CONFIG, field={"matrix": [[0.0, 1.0], [1.0, 0.0]]})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert _run("direct", str(path), tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "config error" in err and "key field:" in err
    assert list(tmp_path.glob("out/*")) == []


def test_direct_field_must_match_flux(tmp_path, capsys):
    # the flux fixes the field: b12 = 2 pi * flux / det(basis), the
    # unit-cell flux 2 pi / 4 on the 2 pi square lattice
    consistent = 1.0 / (8.0 * math.pi)
    lat = cli.build_lattice(D2_CONFIG)
    assert abs(field_for_flux(Fraction(1, 4), lat).b12 - consistent) < 1e-15
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(D2_CONFIG))
    assert _run("direct", str(path), tmp_path / "derived") == 0
    assert len(_read_values(tmp_path / "derived" / "eigenvalues.csv")) == 4
    # a field other than the flux's is refused by every command that
    # builds a magnetic operator, and no result file is written
    for command, cfg in [("direct", D2_CONFIG), ("effective", D2_BLOCH),
                         ("scan", D2_BLOCH), ("compare", COMPARE_CONFIG)]:
        path.write_text(json.dumps(dict(cfg, field={"b12": 0.1})))
        assert _run(command, str(path), tmp_path / command) == 2, command
        assert "key field:" in capsys.readouterr().err
        assert list(tmp_path.glob(f"{command}/*")) == []


def _read_values(path):
    return [float(v) for v in path.read_text().splitlines()[1:]]


def test_config_error_unknown_potential(tmp_path, capsys):
    cfg = dict(BASE_CONFIG)
    cfg["symbol"] = {"potential": {"name": "weird"}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert _run("bands", str(path), tmp_path) == 2
    assert "unknown potential" in capsys.readouterr().err


def test_config_error_irrational_flux(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(BASE_CONFIG, flux="abc")))
    assert _run("effective", str(path), tmp_path) == 2
    assert "rational" in capsys.readouterr().err


def test_config_error_nonsimple_band(tmp_path, capsys):
    # free-particle bands 0 and 1 touch at the zone edge xi = -1/2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_edited(BASE_CONFIG, ("symbol", "potential"),
                                       {"name": "zero"})))
    assert _run("section", str(path), tmp_path) == 2
    assert "H.7" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["section", "effective"])
def test_last_computed_band_is_a_config_error(command, tmp_path, capsys):
    # band 0 is simple, but with one band computed nothing certifies its gap
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_edited(BASE_CONFIG, ("numerics", "n_bands"),
                                       1)))
    assert _run(command, str(path), tmp_path) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "numerics.n_bands" in err
    assert "H.7" not in err


@pytest.mark.parametrize("command, edits, named", [
    ("section", {("numerics", "resolution"): 15}, "even"),
    ("grushin", {("numerics", "resolution"): 15}, "even"),
    ("effective", {("numerics", "resolution"): 12, ("numerics", "radius"): 8},
     "hopping radius 8"),
    ("scan", {("numerics", "resolution"): 12, ("numerics", "radius"): 8},
     "hopping radius 8"),
    ("compare", {("numerics", "resolution"): 12, ("numerics", "radius"): 8},
     "hopping radius 8"),
    ("bands", {("numerics", "cutoff"): 1.0, ("numerics", "n_bands"): 4},
     "plane-wave basis size"),
    ("compare", {("window",): [0.0, 0.5]}, "both spectra empty"),
    ("direct", {("window",): [-1, 30]}, "numerics.n_bands"),
    ("compare", {("window",): [-1, 30]}, "numerics.n_bands"),
    ("direct", {("window",): [100, 101]}, "numerics.n_bands"),
    ("compare", {("window",): [100, 101]}, "numerics.n_bands"),
], ids=["section_odd_resolution", "grushin_odd_resolution",
        "effective_aliasing", "scan_aliasing", "compare_aliasing",
        "bands_above_basis_size", "compare_empty_window",
        "direct_window_into_last_band", "compare_window_into_last_band",
        "direct_window_above_bands", "compare_window_above_bands"])
def test_input_checks_of_the_library_exit_2(command, edits, named, tmp_path,
                                            capsys):
    # each input is refused by a library module, not by the config reader
    cfg = dict(BASE_CONFIG, epsilons=[[0.1, "0"]])
    for keys, value in edits.items():
        cfg = _edited(cfg, keys, value)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert _run(command, str(path), tmp_path) == 2
    err = capsys.readouterr().err
    assert "config error" in err and named in err
    assert "numeric error" not in err


def test_non_finite_fiber_is_an_eigensolver_error(mathieu, lat1, config_path,
                                                  tmp_path, capsys,
                                                  monkeypatch):
    """A NaN kinetic diagonal at one grid point names that point."""
    kinetic = PeriodicSymbol.kinetic
    bad = -0.25  # a grid point of resolution 16 that is solved, not copied

    def nan_at_one_point(self, eta):
        values = kinetic(self, eta)
        values[np.all(np.atleast_2d(eta) == bad, axis=1)] = np.nan
        return values

    monkeypatch.setattr(PeriodicSymbol, "kinetic", nan_at_one_point)
    with pytest.raises(bloch.EigensolverError) as info:
        bloch.compute_bands(mathieu, bz_grid(lat1, 16), dual_shell(lat1, 6.0),
                            3)
    assert info.value.xi.tolist() == [bad]
    assert _run("bands", config_path, tmp_path) == 3
    err = capsys.readouterr().err
    assert "EigensolverError" in err and "xi=[-0.25]" in err


def test_missing_config_is_config_error(tmp_path, capsys):
    assert _run("bands", str(tmp_path / "nope.json"), tmp_path) == 2
    assert "cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["effective", "scan", "direct", "compare"])
def test_config_error_flux_in_d1(command, tmp_path, capsys):
    cfg = dict(BASE_CONFIG, flux="1/8", window=[-0.48, -0.25],
               epsilons=[[0.1, "1/8"]])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert _run(command, str(path), tmp_path) == 2
    assert "H.5" in capsys.readouterr().err


def test_effective_solves_the_bands_once(config_path, tmp_path, monkeypatch):
    calls = []
    solve = bloch.compute_bands

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(bloch, "compute_bands", counted)
    assert _run("effective", config_path, tmp_path) == 0  # no window
    assert len(calls) == 1


@pytest.mark.parametrize("command", sorted(RESULTS))
@pytest.mark.parametrize("cfg", [
    dict(BASE_CONFIG, epsilons=[[0.1, "0"], [0.05, "0"], [0.025, "0"]]),
    dict(BASE_CONFIG, epsilons=[[0.1, "0"]], direct_k_resolution=16),
    dict(D2_BLOCH, epsilons=[[0.08, "1/4"], [0.04, "1/8"]]),
    dict(D2_BLOCH, flux="0", epsilons=[[0.08, "0"]], direct_k_resolution=8),
], ids=["d1", "d1_equal_grids", "d2", "d2_equal_grids"])
def test_each_band_grid_is_solved_once(command, cfg, tmp_path, monkeypatch):
    # a grid, cutoff and n_bands give one BandStructure: the flux-0
    # reference of direct and compare solves its grid once for all its
    # fluxes, and takes the command's own solve when the grids are equal
    grids = []
    solve = bloch.compute_bands

    def counted(sym, grid, shell, n_bands, **kwargs):
        grids.append((grid.resolution, shell.cutoff, n_bands))
        return solve(sym, grid, shell, n_bands, **kwargs)

    monkeypatch.setattr(bloch, "compute_bands", counted)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert _run(command, str(path), tmp_path) == 0
    assert len(grids) == len(set(grids))


@pytest.mark.parametrize("k_res, solves", [
    (8, [(16, None), (8, None)]), (16, [(16, None)])])
def test_a_pipeline_reuses_its_last_band_solve(k_res, solves, tmp_path,
                                               band_solves):
    # one process, one config: bands solves its grid, effective, scan and
    # direct's default window reuse it, and direct's flux-0 reference
    # solves its own grid only where it differs
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(BASE_CONFIG, flux="0",
                                    direct_k_resolution=k_res)))
    for command in ("bands", "effective", "scan", "direct"):
        assert _run(command, str(path), tmp_path) == 0
    assert band_solves == solves


def test_only_the_kept_bands_vectors_are_reused(config_path, tmp_path,
                                                band_solves):
    # section asks for vectors, which the values of bands do not hold;
    # grushin, effective and scan take what section solved
    chain = ("bands", "section", "grushin", "effective", "scan")
    for command in chain:
        assert _run(command, config_path, tmp_path) == 0
    assert band_solves == [(16, None), (16, 0)]
    # another band's vectors are solved; a values request takes any kept
    # solve, whatever its chunk count
    lat = cli.build_lattice(BASE_CONFIG)
    sym, num = cli.build_symbol(BASE_CONFIG, lat), cli._numerics(BASE_CONFIG)
    second = cli._bands(sym, num, 1)
    assert band_solves[2:] == [(16, 1)] and second.vectors is not None
    assert cli._bands(sym, num, workers=2) is second
    assert cli._bands(sym, num, 1, workers=1) is second
    assert len(band_solves) == 3
    # once a process has missed them, bands keeps the vectors of
    # band_index, so the chain solves once, and it writes the bytes of its
    # values-only solve (band 1 as in
    # test_section_and_grushin_carry_the_selected_band)
    band1 = tmp_path / "band1.json"
    band1.write_text(json.dumps(_edited(
        BASE_CONFIG, ("numerics",), dict(BASE_CONFIG["numerics"], cutoff=8.0,
                                         resolution=64, band_index=1))))
    # a request for vectors whose grid is not kept misses nothing
    cli._last_solve, cli._vectors_missed = None, False
    assert _run("section", str(band1), tmp_path) == 0
    assert not cli._vectors_missed
    for path, band, res in [(config_path, 0, 16), (str(band1), 1, 64)]:
        written = []
        for missed in (False, True):
            cli._last_solve, cli._vectors_missed = None, missed
            band_solves.clear()
            for command in chain:
                assert _run(command, path, tmp_path) == 0
            assert band_solves == (
                [(res, band)] if missed else [(res, None), (res, band)])
            assert cli._vectors_missed
            written.append((tmp_path / "bands.csv").read_bytes())
        assert written[0] == written[1]


@pytest.mark.parametrize("keys, value, solves", [
    (("numerics", "resolution"), 16, 1),
    (("seed",), 3, 1),
    (("numerics", "radius"), 5, 1),
    (("numerics", "gap_tol"), 1e-5, 1),
    (("symbol", "potential", "amplitude"), 0.6, 2),
    (("symbol", "kind"), "relativistic", 2),
    (("lattice", "basis"), [[6.3]], 2),
    (("numerics", "cutoff"), 7.0, 2),
    (("numerics", "resolution"), 18, 2),
    (("numerics", "n_bands"), 4, 2),
], ids=["same", "seed", "radius", "gap_tol", "amplitude", "kind", "basis",
        "cutoff", "resolution", "n_bands"])
def test_a_changed_solve_input_solves_again(keys, value, solves, tmp_path,
                                            band_solves):
    # every input of the band solve is in the key, by value; the other
    # settings are not
    for step, config in enumerate([BASE_CONFIG,
                                   _edited(BASE_CONFIG, keys, value)]):
        path = tmp_path / f"cfg{step}.json"
        path.write_text(json.dumps(config))
        assert _run("bands", str(path), tmp_path) == 0
    assert len(band_solves) == solves


def test_a_kept_band_table_is_read_only(config_path, tmp_path):
    assert _run("section", config_path, tmp_path) == 0
    lat = cli.build_lattice(BASE_CONFIG)
    bands = cli._bands(cli.build_symbol(BASE_CONFIG, lat),
                       cli._numerics(BASE_CONFIG))
    assert bands is cli._last_solve[2]
    for table in (bands.bands, bands.vectors):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0


def test_a_failed_solve_keeps_the_last_one(config_path, tmp_path,
                                           band_solves, monkeypatch):
    # a solve that fails (exit 3) is not kept: the same config solves
    # again, and the solve kept before it is still reused
    assert _run("bands", config_path, tmp_path) == 0
    kept = cli._last_solve
    kinetic = PeriodicSymbol.kinetic

    def nan_at_one_point(self, eta):
        values = kinetic(self, eta)
        values[np.all(np.atleast_2d(eta) == -0.25, axis=1)] = np.nan
        return values

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_edited(
        BASE_CONFIG, ("symbol", "potential", "amplitude"), 0.6)))
    monkeypatch.setattr(PeriodicSymbol, "kinetic", nan_at_one_point)
    for _ in range(2):
        assert _run("bands", str(path), tmp_path) == 3
        assert cli._last_solve is kept
    monkeypatch.setattr(PeriodicSymbol, "kinetic", kinetic)
    assert _run("bands", config_path, tmp_path) == 0
    assert _run("bands", str(path), tmp_path) == 0
    assert len(band_solves) == 4


@pytest.mark.parametrize("command", ["effective", "scan", "compare", "direct"])
def test_band_intervals_are_computed_once(command, tmp_path, monkeypatch):
    # the H.7 check and the default window share one band_intervals
    calls = []
    intervals = bloch.band_intervals

    def counted(*args, **kwargs):
        calls.append(args)
        return intervals(*args, **kwargs)

    cfg = dict(BASE_CONFIG, epsilons=[[0.1, "0"]])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    monkeypatch.setattr(bloch, "band_intervals", counted)
    assert _run(command, str(path), tmp_path) == 0  # no window
    assert len(calls) == 1


@pytest.mark.parametrize("epsilons, named", [
    ([[0.08, "1/4"], [0.5, "1/8"]], "[0.5, '1/8']"),
    ([[0.08, "1/4"], [0.0, "0"]], "[0.0, '0']"),
], ids=["flux_mismatch", "epsilon_zero"])
def test_compare_needs_one_flux_per_epsilon(epsilons, named, tmp_path, capsys):
    cfg = json.loads(json.dumps(D2_CONFIG))
    cfg["numerics"]["radius"] = 3
    cfg["epsilons"] = epsilons
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert _run("compare", str(path), tmp_path) == 2
    assert named in capsys.readouterr().err


def test_relativistic_fd_is_a_config_error(tmp_path, capsys, monkeypatch):
    # the finite-difference stencil has no relativistic root
    def stencil(*args, **kwargs):
        raise AssertionError("the operator must not be built")

    monkeypatch.setattr(direct, "_fd_stencil", stencil)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_edited(D2_CONFIG, ("symbol", "kind"),
                                       "relativistic")))
    assert _run("direct", str(path), tmp_path) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "symbol.kind 'relativistic'" in err


def test_too_wide_direct_window_is_a_config_error(tmp_path, capsys):
    # the window's eigenvalue count is known before any iteration
    cfg = dict(D2_CONFIG, window=[-1, 20])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert _run("direct", str(path), tmp_path) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "window [-1.0, 20.0] holds" in err


def test_direct_rejects_unknown_mode(tmp_path, capsys):
    # direct takes its solver from the flux, so no mode is read
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(D2_CONFIG, mode="bloch")))
    assert _run("direct", str(path), tmp_path) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "key mode:" in err


@pytest.mark.parametrize("command, cfg", [("effective", BASE_CONFIG),
                                          ("direct", D2_CONFIG)],
                         ids=["effective", "direct"])
def test_box_mode_is_an_unknown_mode(command, cfg, tmp_path, capsys):
    # no Dirichlet box: its edge states fill the gaps of the bulk spectrum
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(cfg, mode="box")))
    assert _run(command, str(path), tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "config error" in err and "key mode:" in err
    assert list(tmp_path.glob("out/*")) == []


def test_direct_fibers_are_recorded(tmp_path):
    # direct_k_resolution 2 at flux 1/4: k2 = 0 and pi are 2 pi/4 apart twice
    cfg = json.loads(json.dumps(D2_CONFIG))
    cfg.update(k_resolution=2, direct_k_resolution=2,
               epsilons=[[0.08, "1/4"]])
    cfg["numerics"]["radius"] = 3
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert _run("direct", str(path), tmp_path) == 0
    meta = json.loads((tmp_path / "direct_meta.json").read_text())
    summary = meta["summary"]
    assert summary["direct_fibers"] == 2
    assert summary["count"] == 2 * 4  # each fiber solved, q subbands
    assert _run("compare", str(path), tmp_path) == 0
    report = json.loads((tmp_path / "compare.json").read_text())
    assert [run["direct_fibers"] for run in report["runs"]] == [2]


def test_compare_certifies_the_lower_edge_once(tmp_path, monkeypatch):
    # two fluxes, two fibers each: one stencil per flux and one zero-field
    # cell, whose count clears the window for both; each fiber then
    # factors only its upper edge
    cfg = json.loads(json.dumps(COMPARE_CONFIG))
    cfg.update(direct_k_resolution=2, epsilons=[[0.08, "1/4"],
                                                [0.04, "1/8"]])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    shapes, factors = [], []
    stencil, factor = direct._fd_stencil, direct._shift_factors
    monkeypatch.setattr(direct, "_fd_stencil", lambda sym, A, h, shape, **kw:
                        shapes.append(shape) or stencil(sym, A, h, shape,
                                                        **kw))
    monkeypatch.setattr(direct, "_shift_factors", lambda M, sigma:
                        factors.append(M.shape[0]) or factor(M, sigma))
    assert _run("compare", str(path), tmp_path) == 0
    assert sorted(shapes) == [(16, 16), (64, 16), (128, 16)]
    assert sorted(factors) == [256, 1024, 1024, 2048, 2048]


# two fluxes and a window: compare runs its Peierls side beside the
# reference
OVERLAP_CONFIG = dict(D2_BLOCH, epsilons=[[0.08, "1/4"], [0.04, "1/8"]])
# three: the calling thread and the worker meet at the middle flux
THREE_FLUX_CONFIG = dict(D2_BLOCH, epsilons=[[0.08, "1/4"], [0.04, "1/8"],
                                             [0.02, "1/16"]])
# the reference waits for the band solve: for the default window, and at
# flux 0 for the band grid, here the band solve's own
NO_WINDOW_CONFIG = {key: value for key, value in OVERLAP_CONFIG.items()
                    if key != "window"}
FLUX_0_CONFIG = dict(D2_BLOCH, epsilons=[[0.08, "0"]], direct_k_resolution=8)


def test_compare_beside_the_reference_writes_the_same_bytes(tmp_path,
                                                            monkeypatch,
                                                            band_solves):
    # one free core or two, the Peierls side runs on a worker thread beside
    # the reference, which then shares the fluxes, or before it when the
    # reference needs the band solve; either way the bytes are the same and
    # the bands are solved once
    for name, cfg in [("two", OVERLAP_CONFIG), ("three", THREE_FLUX_CONFIG),
                      ("no_window", NO_WINDOW_CONFIG),
                      ("flux_0", FLUX_0_CONFIG)]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        written = []
        for workers in (1, 2):
            monkeypatch.setattr(bloch, "_workers", lambda: workers)
            out = tmp_path / f"{name}-workers{workers}"
            cli._last_solve = None
            band_solves.clear()
            assert _run("compare", str(path), out) == 0
            assert band_solves == [(8, None)]
            written.append([(out / name).read_bytes()
                            for name in ("compare.json", "compare_meta.json")])
        assert written[0] == written[1]


def _held_reference(monkeypatch, workers, fails=()):
    """direct.direct_spectrum recording the thread of each flux's call and
    raising at the fluxes fails, with bloch._workers() at workers.  The
    first call on the calling thread, its largest flux, waits until
    another flux's call has started, which only the worker can make: the
    worker, done with the Peierls side, then takes the smallest flux."""
    threads, started, spectrum = {}, threading.Event(), direct.direct_spectrum
    caller = threading.get_ident()

    def reference(disc, *args):
        threads.setdefault(disc.flux, []).append(threading.get_ident())
        if threading.get_ident() != caller:
            started.set()
        elif len(threads) == 1:
            assert started.wait(60)
        if disc.flux in fails:
            raise InputError(f"the reference failed at {disc.flux}")
        return spectrum(disc, *args)

    monkeypatch.setattr(direct, "direct_spectrum", reference)
    monkeypatch.setattr(bloch, "_workers", lambda: workers)
    return threads


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("potential, fails, named", [
    ("zero", ("1/4", "1/8"), "H.7"),
    ("separable_cosine_2d", ("1/4", "1/8"), "the reference failed at 1/4"),
    ("separable_cosine_2d", ("1/4",), "the reference failed at 1/4"),
], ids=["both_fail", "reference_fails", "worker_flux_fails"])
def test_compare_band_error_wins_over_the_reference(
        workers, potential, fails, named, tmp_path, monkeypatch, capsys):
    # free bands touch, so band 0 fails H.7: that error is reported even
    # when the reference beside it fails too, as when the band side ran
    # first; a reference error alone is reported as it is, the first in
    # config order, also when the worker thread solved its flux.  One free
    # core runs the same schedule as two
    threads = _held_reference(monkeypatch, workers,
                              [Fraction(flux) for flux in fails])
    before = threading.active_count()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_edited(
        OVERLAP_CONFIG, ("symbol", "potential", "name"), potential)))
    assert _run("compare", str(path), tmp_path) == 2
    err = capsys.readouterr().err
    assert "config error" in err and named in err
    assert ("the reference failed" in err) == (named != "H.7")
    # beside the band side each flux is solved once, the smallest on the
    # worker
    assert {flux: len(ids) for flux, ids in threads.items()} == {
        Fraction(1, 4): 1, Fraction(1, 8): 1}
    assert threads[Fraction(1, 4)] != [threading.get_ident()]
    assert threading.active_count() == before


@pytest.mark.parametrize("workers", [1, 2])
def test_compare_splits_the_reference_between_its_ends(workers, tmp_path,
                                                       monkeypatch):
    # one fiber per flux, so the work is q: the calling thread solves 1/16,
    # the largest, and the worker 1/4, the smallest, once the Peierls side
    # is built, with one free core as with two; the band solve takes one
    # chunk, so the worker is the one thread started
    threads = _held_reference(monkeypatch, workers)
    started, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: (
        started.append(self), start(self))[1])
    before = threading.active_count()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(THREE_FLUX_CONFIG))
    assert _run("compare", str(path), tmp_path) == 0
    # the fluxes in the order of their first calls: the largest, then the
    # smallest on the worker
    big, middle, small = Fraction(1, 16), Fraction(1, 8), Fraction(1, 4)
    assert list(threads) == [big, small, middle]
    assert all(len(ids) == 1 for ids in threads.values())
    caller = threading.get_ident()
    assert threads[big] == [caller]
    assert threads[small] != [caller]
    assert len(started) == 1
    assert threading.active_count() == before


def test_jobs_run_once_whichever_thread_takes_them():
    # four threads, two at each end, switching every microsecond: every
    # job runs exactly once and its slot holds its own result or error,
    # which results() raises first in index order
    count, ran = 2000, []

    def solve(i):
        ran.append(i)
        if i in (7, 1500):
            raise ValueError(i)
        return i

    jobs = cli._Jobs(solve, [i % 5 for i in range(count)])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=jobs.run, args=(end,))
                   for end in (False, True, False, True)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert sorted(ran) == list(range(count))
    assert [slot if isinstance(slot, int) else slot.args[0]
            for slot in jobs.slots] == list(range(count))
    with pytest.raises(ValueError, match="^7$"):
        jobs.results()
    assert len(ran) == count


# at cutoff 8 (basis size 197) a two-thread OpenBLAS solves band fibers to
# other bits than a one-thread one
THREADED_CONFIG = dict(COMPARE_CONFIG,
                       numerics={**COMPARE_CONFIG["numerics"], "cutoff": 8.0})


def test_outputs_do_not_depend_on_the_callers_blas_threads(tmp_path,
                                                           blas_threads,
                                                           band_solves):
    # every command runs with the BLAS at one thread: a caller at two
    # threads gets the bytes of one at one thread, and its two threads
    # back after each exit, 0 or 2
    counts = [get for _, get in bloch._blas_controls().values()]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(THREADED_CONFIG))
    written = []
    for threads in (1, 2):
        blas_threads(threads)
        out = tmp_path / f"threads{threads}"
        cli._last_solve, cli._vectors_missed = None, False
        band_solves.clear()
        for command in ("bands", "section", "compare"):
            assert _run(command, str(path), out) == 0
            assert [get() for get in counts] == [threads] * len(counts)
        # compare takes the values of section's solve
        assert band_solves == [(8, None), (8, 0)]
        written.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert written[0] == written[1]
    # refused as the config is read, and by the command, under the pin
    for key, edit in [(("seed",), -1), (("numerics", "n_bands"), 1)]:
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_edited(THREADED_CONFIG, key, edit)))
        assert _run("section", str(bad), tmp_path / "bad") == 2
        assert [get() for get in counts] == [2] * len(counts)


def test_compare_band_side_takes_the_cores_the_reference_leaves(
        tmp_path, monkeypatch):
    # three free cores: the reference keeps one, and the band solve on the
    # worker thread splits into two chunks, its own and one in a thread it
    # starts; without a window the reference waits for the band solve,
    # which takes all three; no thread outlives the command
    monkeypatch.setattr(bloch, "_workers", lambda: 3)
    monkeypatch.setattr(bloch, "THREAD_WORK", 1)
    threads, chunks = [], []
    for dtype, (name, evr, kinds) in list(bloch._MRRR.items()):
        monkeypatch.setitem(bloch._MRRR, dtype, (name, lambda *args, evr=evr: (
            threads.append(threading.get_ident()) or evr(*args)), kinds))
    solve = bloch.compute_bands
    monkeypatch.setattr(bloch, "compute_bands", lambda *args, **kwargs: (
        chunks.append(kwargs["workers"]) or solve(*args, **kwargs)))
    before = threading.active_count()
    for cfg, cores in [(OVERLAP_CONFIG, 2), (NO_WINDOW_CONFIG, 3)]:
        cli._last_solve = None
        threads.clear()
        chunks.clear()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert _run("compare", str(path), tmp_path) == 0
        assert chunks == [cores]
        # the chunks' pool may reuse a thread whose chunk is done
        assert 2 <= len(set(threads)) <= cores
        assert threading.get_ident() not in threads
        assert threading.active_count() == before


def _edited(base, keys, value):
    """A deep copy of base with the value at the nested keys replaced;
    no keys replace the whole config."""
    if not keys:
        return value
    cfg = json.loads(json.dumps(base))
    *parents, key = keys
    section = cfg
    for name in parents:
        section = section.setdefault(name, {})
    section[key] = value
    return cfg


@pytest.mark.parametrize("command, cfg, named", [
    ("compare", _edited(COMPARE_CONFIG, ("symbol", "kind"), "relativistic"),
     "symbol.kind 'relativistic'"),
    # 256 unit cells of 16^2 points: 65,536 unknowns
    ("compare", dict(COMPARE_CONFIG, epsilons=[[0.08, "1/256"]]),
     "65536 unknowns"),
    ("compare", dict(COMPARE_CONFIG, direct_k_resolution=1024),
     "momentum grid of 1048576 points"),
    ("direct", {key: value for key, value in _edited(
        D2_CONFIG, ("symbol", "kind"), "relativistic").items()
        if key != "window"}, "symbol.kind 'relativistic'"),
], ids=["relativistic_compare", "compare_size", "compare_momentum_grid",
        "relativistic_direct"])
def test_reference_is_refused_before_any_band_solve(
        command, cfg, named, tmp_path, capsys, monkeypatch):
    def solve(*args, **kwargs):
        raise AssertionError("no band is solved")

    monkeypatch.setattr(bloch, "compute_bands", solve)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert _run(command, str(path), tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "config error" in err and named in err
    assert list(tmp_path.glob("out/*")) == []


@pytest.mark.parametrize("cfg", [
    dict(BASE_CONFIG, window=[-0.5, 0.0], epsilons=[[0.1, "0"],
                                                    [0.05, "0"]]),
    dict(COMPARE_CONFIG, flux="0", direct_k_resolution=2,
         epsilons=[[0.08, "0"]]),
], ids=["d1", "d2"])
def test_direct_and_compare_share_one_reference(cfg, tmp_path, monkeypatch):
    # at flux 0 both solve the plane-wave bands at direct_k_resolution, and
    # no finite-difference fiber or zero-field cell is factored
    def factor(*args, **kwargs):
        raise AssertionError("no finite-difference matrix is factored")

    monkeypatch.setattr(direct, "_shift_factors", factor)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert _run("direct", str(path), tmp_path) == 0
    assert _run("compare", str(path), tmp_path) == 0
    summary = json.loads((tmp_path / "direct_meta.json").read_text())[
        "summary"]
    runs = json.loads((tmp_path / "compare.json").read_text())["runs"]
    assert len(runs) == len(cfg["epsilons"])
    for run in runs:
        assert run["direct_intervals"] == summary["intervals"]
        assert run["direct_fibers"] == summary["direct_fibers"]


@pytest.mark.parametrize("command", ["bands", "section", "effective", "scan",
                                     "direct", "compare"])
def test_relativistic_kind_runs_at_flux_0(command, tmp_path):
    # only the finite-difference reference, at nonzero flux, refuses it
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_edited(
        dict(BASE_CONFIG, epsilons=[[0.1, "0"]]), ("symbol", "kind"),
        "relativistic")))
    assert _run(command, str(path), tmp_path) == 0


# field sections, by test id: (keys, value, what the error names).  The
# field is the flux's, so a field section of any content is an unknown key
MALFORMED_FIELD = {
    "field_matrix_1x1": (("field", "matrix"), [[0.0]], "key field:"),
    "b12_text": (("field", "b12"), "abc", "key field:"),
    "epsilon_bool": (("field", "epsilon"), True, "key field:"),
}

# the base config of each command at flux 1/4 on the 2 pi square lattice
D2_BASES = {"bands": D2_CONFIG, "section": D2_CONFIG, "grushin": D2_CONFIG,
            "effective": D2_BLOCH, "scan": D2_BLOCH, "direct": D2_CONFIG,
            "compare": COMPARE_CONFIG}


@pytest.mark.parametrize("command, base, keys, value, named", [
    ("bands", BASE_CONFIG, ("lattice",), {"vectors": [[6.28]]},
     "lattice.basis"),
    ("bands", BASE_CONFIG, ("lattice", "basis"), [[6.28, 0.0]],
     "lattice.basis"),
    ("bands", BASE_CONFIG, ("numerics", "resolution"), "x",
     "numerics.resolution"),
    ("bands", BASE_CONFIG, ("numerics", "resolution"), 16.5,
     "numerics.resolution"),
    ("bands", BASE_CONFIG, ("numerics", "n_bands"), 0, "numerics.n_bands"),
    ("bands", BASE_CONFIG, ("numerics", "cutoff"), -1.0, "numerics.cutoff"),
    ("effective", BASE_CONFIG, ("numerics", "band_index"), 3,
     "numerics.band_index"),
    *[("direct", D2_CONFIG, *case) for case in MALFORMED_FIELD.values()],
    ("bands", BASE_CONFIG, ("symbol", "potential", "amplitude"),
     float("nan"), "H.3"),
    ("bands", BASE_CONFIG, ("symbol", "potential", "amplitude"), [0.5],
     "symbol.potential.amplitude"),
    ("bands", BASE_CONFIG, ("symbol", "potential", "amplitude"), "0.5",
     "symbol.potential.amplitude"),
    ("bands", BASE_CONFIG, ("symbol",), "cosine", "'symbol'"),
    ("bands", BASE_CONFIG, ("symbol", "potential"), "cosine",
     "'symbol.potential'"),
    ("bands", BASE_CONFIG, (), [BASE_CONFIG], "JSON object"),
    ("bands", BASE_CONFIG, ("symbol", "kind"), ["x"], "symbol.kind"),
    ("bands", BASE_CONFIG, ("symbol", "potential", "name"), {"a": 1},
     "symbol.potential.name"),
    # a key that no command reads is refused, not ignored
    ("bands", BASE_CONFIG, ("mode",), "box", "key mode:"),
    ("section", BASE_CONFIG, ("mode",), "box", "key mode:"),
    ("grushin", BASE_CONFIG, ("mode",), "box", "key mode:"),
    ("effective", BASE_CONFIG, ("mode",), ["box"], "key mode:"),
    ("scan", BASE_CONFIG, ("mode",), "box", "key mode:"),
    ("direct", D2_CONFIG, ("mode",), ["box"], "key mode:"),
    ("compare", COMPARE_CONFIG, ("mode",), "box", "key mode:"),
    ("effective", BASE_CONFIG, ("box_size",), 10, "key box_size:"),
    ("bands", BASE_CONFIG, ("numerics", "resolutoin"), 8,
     "key numerics.resolutoin:"),
    ("bands", BASE_CONFIG, ("symbol", "knd"), "relativistic",
     "key symbol.knd:"),
    ("bands", BASE_CONFIG, ("symbol", "potential", "amplitud"), 0.1,
     "key symbol.potential.amplitud:"),
    ("bands", BASE_CONFIG, ("lattice", "origin"), [0.0],
     "key lattice.origin:"),
    # the field of flux 1/4, b12 = 2 pi * flux / det(basis), is refused too:
    # every operator takes its field from the flux
    *[(command, base, ("field",), {"b12": 1.0 / (8.0 * math.pi)},
       "key field:") for command, base in D2_BASES.items()],
], ids=["no_basis", "non_square_basis", "resolution_text",
        "resolution_fraction", "no_bands", "negative_cutoff",
        "band_index_too_large", "field_matrix_1x1", "b12_text",
        "epsilon_bool", "amplitude_nan", "amplitude_list", "amplitude_text",
        "symbol_text", "potential_text", "config_list", "kind_list",
        "potential_name_object", "mode_bands", "mode_section",
        "mode_grushin", "effective_mode_list", "mode_scan",
        "direct_mode_list",
        "mode_compare", "box_size", "numerics_typo", "symbol_typo",
        "potential_typo", "lattice_extra",
        *[f"field_{command}" for command in D2_BASES]])
def test_malformed_config_is_config_error(command, base, keys, value, named,
                                          tmp_path, capsys, monkeypatch):
    # the config reader refuses each before any band solve, and no result
    # file is written
    def solve(*args, **kwargs):
        raise AssertionError("no band is solved")

    monkeypatch.setattr(bloch, "compute_bands", solve)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_edited(base, keys, value)))
    assert _run(command, str(path), tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "config error" in err and named in err
    assert list(tmp_path.glob("out/*")) == []


def test_non_elliptic_symbol_is_config_error(tmp_path, capsys):
    # V = 18 cos(y) outweighs |eta|^2 = 16 at the sampled radius 4
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_edited(
        BASE_CONFIG, ("symbol", "potential", "amplitude"), 9.0)))
    assert _run("bands", str(path), tmp_path) == 2
    assert "H.4" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["effective", "scan", "compare", "direct"])
def test_huge_flux_denominator_is_config_error(command, tmp_path, capsys):
    # without the size limit the first allocation would fail at once
    cfg = json.loads(json.dumps(D2_CONFIG))
    cfg["numerics"]["radius"] = 3
    cfg.update(flux="1/1000000007", epsilons=[[1.0, "1/1000000007"]])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert _run(command, str(path), tmp_path) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "limit" in err


# malformed top-level values, by test id: (command, base, key, value)
MALFORMED_TOP_LEVEL = {
    "k_resolution_text": ("effective", BASE_CONFIG, "k_resolution", "x"),
    "k_resolution_fraction": ("effective", BASE_CONFIG, "k_resolution", 8.7),
    "window_reversed": ("effective", BASE_CONFIG, "window", [0.5, -0.5]),
    "window_nan": ("effective", BASE_CONFIG, "window", [float("nan"), 0.5]),
    "lambda_points_text": ("scan", BASE_CONFIG, "lambda_points", "many"),
    "scan_k_resolution_zero": ("scan", BASE_CONFIG, "k_resolution", 0),
    "samples_text": ("grushin", BASE_CONFIG, "samples", "many"),
    "points_per_cell_fraction": ("direct", D2_CONFIG, "points_per_cell",
                                 16.5),
    "points_per_cell_too_coarse": ("direct", D2_CONFIG, "points_per_cell",
                                   8),
    "zero_field_k_resolution_one": ("direct", BASE_CONFIG,
                                    "direct_k_resolution", 1),
    "zero_field_k_resolution_one_compare": (
        "compare", dict(BASE_CONFIG, epsilons=[[0.1, "0"]]),
        "direct_k_resolution", 1),
    "direct_k_resolution_text": ("compare", COMPARE_CONFIG,
                                 "direct_k_resolution", "x"),
    "compare_k_resolution_fraction": ("compare", COMPARE_CONFIG,
                                      "k_resolution", 2.5),
    "seed_text": ("grushin", BASE_CONFIG, "seed", "abc"),
    "seed_fraction": ("grushin", BASE_CONFIG, "seed", 1.5),
    "seed_negative": ("grushin", BASE_CONFIG, "seed", -1),
    # each sizes an array, refused before it is allocated
    "samples_oversized": ("grushin", BASE_CONFIG, "samples", 10**12),
    "lambda_points_oversized": ("scan", BASE_CONFIG, "lambda_points", 10**12),
    "epsilons_single": ("compare", COMPARE_CONFIG, "epsilons", [[0.08]]),
    "epsilons_number": ("compare", COMPARE_CONFIG, "epsilons", 5),
    "epsilon_bool": ("compare", COMPARE_CONFIG, "epsilons", [[True, "1/4"]]),
    "epsilon_text": ("compare", COMPARE_CONFIG, "epsilons",
                     [["0.08", "1/4"]]),
    "epsilon_infinite": ("compare", COMPARE_CONFIG, "epsilons",
                         [[float("inf"), "1/4"]]),
    "epsilon_nan": ("compare", COMPARE_CONFIG, "epsilons",
                    [[float("nan"), "1/4"]]),
}


@pytest.mark.parametrize("command, base, key, value",
                         list(MALFORMED_TOP_LEVEL.values()),
                         ids=list(MALFORMED_TOP_LEVEL))
def test_malformed_top_level_key_is_config_error(command, base, key, value,
                                                 tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_edited(base, (key,), value)))
    assert _run(command, str(path), tmp_path) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err


# direct_k_resolution 1 is malformed only at flux 0, for the reference's
# band grid
PER_CONFIG = {case: (base, (key,), value, key) for case, (_, base, key, value)
              in MALFORMED_TOP_LEVEL.items()
              if not case.startswith("zero_field_k_resolution_one")}
PER_CONFIG.update({f"field-{case}": (D2_CONFIG, *field) for case, field
                   in MALFORMED_FIELD.items()})


@pytest.mark.parametrize("base, keys, value, named",
                         list(PER_CONFIG.values()), ids=list(PER_CONFIG))
def test_bands_refuses_what_another_command_refuses(
        base, keys, value, named, tmp_path, capsys, monkeypatch):
    # values are checked per config, not per command: bands reads no
    # setting, window or epsilon, yet refuses a malformed one, and a field
    # section, before any band solve, and writes no result file
    def solve(*args, **kwargs):
        raise AssertionError("no band is solved")

    monkeypatch.setattr(bloch, "compute_bands", solve)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_edited(base, keys, value)))
    assert _run("bands", str(path), tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "config error" in err and named in err
    assert list(tmp_path.glob("out/*")) == []


def test_one_config_feeds_every_command(tmp_path):
    # a d=2 pipeline on one config at flux 1/4 without a field section,
    # the field being the flux's: every command runs, and direct and
    # compare solve the reference on the one grid direct_k_resolution, not
    # on the Peierls cloud's k_resolution
    cfg = dict(COMPARE_CONFIG, k_resolution=2, direct_k_resolution=1)
    assert cfg["flux"] == "1/4" and "field" not in cfg
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    for command in RESULTS:
        assert _run(command, str(path), tmp_path / command) == 0, command
    direct_meta = json.loads(
        (tmp_path / "direct" / "direct_meta.json").read_text())
    report = json.loads((tmp_path / "compare" / "compare.json").read_text())
    assert [run["flux"] for run in report["runs"]] == [cfg["flux"]]
    assert direct_meta["summary"]["direct_fibers"] == (
        report["runs"][0]["direct_fibers"]) == 1


@pytest.mark.parametrize("command, cfg, module, limit, refused", [
    # at flux 1/4 the class map of a 1024^2 grid alone is 8 MB
    ("effective", dict(D2_BLOCH, k_resolution=1024), lattice,
     "MAX_CLOUD_VALUES", 1024**2 * 8),
    ("direct", dict(D2_CONFIG, direct_k_resolution=1024), lattice,
     "MAX_CLOUD_VALUES", 1024**2 * 8),
    ("compare", dict(COMPARE_CONFIG, k_resolution=2,
                     direct_k_resolution=1024), lattice,
     "MAX_CLOUD_VALUES", 1024**2 * 8),
    # q = 64 at k_resolution 2: 2 fibers and 21 coefficient blocks, each
    # 64 x 64 complex, 1.5 MB
    ("effective", dict(D2_BLOCH, flux="1/64", k_resolution=2), effective,
     "MAX_FIBER_ENTRIES", 23 * 64**2 * 16),
    # cutoff 400 in d=1: a basis of 801 plane waves, a 5 MB fiber
    ("bands", _edited(BASE_CONFIG, ("numerics", "cutoff"), 400.0), bloch,
     "MAX_BAND_ENTRIES", 801**2 * 8),
    # cutoff 400 in d=2: 801^2 candidates, 10 MB of coefficients
    ("bands", _edited(D2_CONFIG, ("numerics", "cutoff"), 400.0), lattice,
     "MAX_SHELL_CANDIDATES", 801**2 * 16),
], ids=["k_resolution", "direct_k_resolution_direct",
        "direct_k_resolution_compare", "fiber_entries", "cutoff_basis",
        "cutoff_candidates"])
def test_oversized_grid_exits_2_before_it_is_allocated(
        command, cfg, module, limit, refused, tmp_path, capsys, monkeypatch):
    # each limit is lowered to 2**12, so the refused array stays small; the
    # traced peak shows that it was refused before it was allocated
    monkeypatch.setattr(module, limit, 2**12)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    tracemalloc.start()
    try:
        code = _run(command, str(path), tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "limit" in err
    assert peak < refused / 2


@pytest.mark.parametrize("missed", [False, True])
def test_bands_keeps_its_band_grid_bound(missed, tmp_path, capsys,
                                         monkeypatch, band_solves):
    # the limit is lowered below the values plus one band's vectors of the
    # 16-point grid, basis size 13, but above its values and one fiber:
    # section, which needs the vectors of band_index, is refused, and bands
    # solves the values alone, also in a process that has missed vectors
    size = dual_shell(cli.build_lattice(BASE_CONFIG), 6.0).size
    limit = 16 * (3 + size) - 1
    assert max(16 * 3, size**2) <= limit
    monkeypatch.setattr(bloch, "MAX_BAND_ENTRIES", limit)
    cli._vectors_missed = missed
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BASE_CONFIG))
    assert _run("bands", str(path), tmp_path) == 0
    assert band_solves == [(16, 0)] * missed + [(16, None)]
    assert _run("section", str(path), tmp_path) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "the band grid stores" in err
    assert f"the limit {limit}" in err


def test_nan_lattice_basis_is_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_edited(BASE_CONFIG, ("lattice", "basis"),
                                       [[float("nan")]])))
    assert _run("bands", str(path), tmp_path) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "lattice.basis" in err


@pytest.mark.parametrize("command, cfg", [
    ("direct", D2_CONFIG),
    ("compare", COMPARE_CONFIG),
], ids=["magnetic_bloch", "compare"])
def test_non_rectangular_lattice_is_config_error(command, cfg, tmp_path,
                                                 capsys):
    # the finite-difference operator needs a diagonal basis
    skew = [[6.283185307179586, 1.0], [0.0, 6.283185307179586]]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_edited(cfg, ("lattice", "basis"), skew)))
    assert _run(command, str(path), tmp_path) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "lattice.basis" in err
