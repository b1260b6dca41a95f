import json
import math

import numpy as np
import pytest

from peierls import bloch, direct, effective
from peierls.cli import main
from peierls.lattice import bz_grid, dual_shell
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


def test_bands_command_writes_deterministic_csv(config_path, tmp_path):
    out = tmp_path / "run"
    assert _run("bands", config_path, out) == 0
    body = (out / "bands.csv").read_text()
    assert body.splitlines()[0] == "frac1,band,value"
    assert len(body.splitlines()) == 1 + 16 * 3
    meta = json.loads((out / "bands_meta.json").read_text())
    assert meta["command"] == "bands"
    intervals = json.loads((out / "intervals.json").read_text())
    assert intervals["simple"][0] is True
    # rerun: byte-identical output
    assert _run("bands", config_path, out) == 0
    assert (out / "bands.csv").read_text() == body


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


def test_effective_and_scan_commands(config_path, tmp_path):
    out = tmp_path / "run"
    assert _run("effective", config_path, out) == 0
    spectrum = json.loads((out / "spectrum.json").read_text())
    assert len(spectrum["intervals"]) >= 1
    assert _run("scan", config_path, out) == 0
    lines = (out / "scan.csv").read_text().splitlines()
    assert lines[0] == "lambda,margin"
    assert len(lines) == 401


def test_direct_command(config_path, tmp_path):
    out = tmp_path / "run"
    assert _run("direct", config_path, out) == 0
    lines = (out / "eigenvalues.csv").read_text().splitlines()
    assert lines[0] == "value" and len(lines) > 1


def test_compare_command(config_path, tmp_path, monkeypatch):
    cfg = dict(BASE_CONFIG)
    cfg["epsilons"] = [[0.1, "0"], [0.05, "0"], [0.025, "0"]]
    cfg["points_per_cell"] = 32
    path = tmp_path / "cmp.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert _run("compare", str(path), out) == 0
    report = json.loads((out / "compare.json").read_text())
    assert len(report["runs"]) == 3
    assert "fitted_slope" in report


def test_config_error_antisymmetry(tmp_path, capsys):
    cfg = dict(BASE_CONFIG)
    cfg["field"] = {"matrix": [[0.0, 1.0], [1.0, 0.0]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert _run("direct", str(path), tmp_path) == 2
    assert "H.1" in capsys.readouterr().err


D2_CONFIG = {
    "lattice": {"basis": [[6.283185307179586, 0.0], [0.0, 6.283185307179586]]},
    "symbol": {
        "kind": "nonrelativistic",
        "potential": {"name": "separable_cosine_2d", "amplitude": 0.5},
    },
    "numerics": {"cutoff": 4.0, "resolution": 8, "n_bands": 2},
    "mode": "magnetic_bloch",
    "flux": "1/4",
    "window": [-0.83, -0.29],
    "k_resolution": 1,
}


def test_direct_field_must_match_flux(tmp_path, capsys):
    consistent = 1.0 / (8.0 * math.pi)  # unit-cell flux 2 pi / 4
    cfg = dict(D2_CONFIG, field={"b12": 0.1})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert _run("direct", str(path), tmp_path / "bad") == 2
    err = capsys.readouterr().err
    assert "0.1" in err and f"{consistent:.12f}"[:13] in err
    cfg["field"] = {"b12": consistent}
    path.write_text(json.dumps(cfg))
    assert _run("direct", str(path), tmp_path / "given") == 0
    given = _read_values(tmp_path / "given" / "eigenvalues.csv")
    assert len(given) == 4  # q subbands of band 0
    # without a field the consistent one is derived from the flux
    del cfg["field"]
    path.write_text(json.dumps(cfg))
    assert _run("direct", str(path), tmp_path / "derived") == 0
    derived = _read_values(tmp_path / "derived" / "eigenvalues.csv")
    assert max(abs(a - b) for a, b in zip(given, derived)) < 1e-9


def _read_values(path):
    return [float(v) for v in path.read_text().splitlines()[1:]]


def test_config_error_unknown_potential(tmp_path, capsys):
    cfg = dict(BASE_CONFIG)
    cfg["symbol"] = {"potential": {"name": "weird"}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert _run("bands", str(path), tmp_path) == 2
    assert "unknown potential" in capsys.readouterr().err


def test_config_error_irrational_flux(config_path, tmp_path, capsys):
    assert _run("effective", config_path, tmp_path, ["--flux", "abc"]) == 2
    assert "rational" in capsys.readouterr().err


def test_config_error_nonsimple_band(tmp_path, capsys):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["numerics"]["band_index"] = 2  # last computed band: never certified
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert _run("section", str(path), tmp_path) == 2
    assert "H.7" in capsys.readouterr().err


def test_numeric_error_exit_code(config_path, tmp_path, capsys):
    # box smaller than the hopping radius is a numeric-domain error
    cfg = dict(BASE_CONFIG)
    cfg["mode"] = "box"
    cfg["box_size"] = 2
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert _run("effective", str(path), tmp_path) == 3
    assert "numeric error" in capsys.readouterr().err


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


@pytest.mark.parametrize("mode", ["box", "magnetic_bloch"])
def test_config_error_non_constant_field(mode, tmp_path, capsys):
    cfg = dict(D2_CONFIG, mode=mode, box_size=8.0, box_points=32,
               field={"b12": 0.1, "kind": "gaussian"})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert _run("direct", str(path), tmp_path) == 2
    err = capsys.readouterr().err
    assert "H.6" in err and "gaussian" in err


def test_effective_solves_the_bands_once(config_path, tmp_path, monkeypatch):
    calls = []
    solve = bloch.compute_bands

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(bloch, "compute_bands", counted)
    assert _run("effective", config_path, tmp_path) == 0  # no window
    assert len(calls) == 1


@pytest.mark.parametrize("extra", [{"field": {"b12": 0.5}}, {"flux": "1/4"}],
                         ids=["field", "flux"])
def test_zero_field_bloch_rejects_field_and_flux(extra, tmp_path, capsys):
    cfg = dict(D2_CONFIG, mode="zero_field_bloch", flux="0", k_resolution=2)
    cfg.update(extra)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert _run("direct", str(path), tmp_path) == 2
    assert "magnetic_bloch" in capsys.readouterr().err
    # a field of zero strength is the zero field
    cfg["field"], cfg["flux"] = {"b12": 0.5, "epsilon": 0.0}, "0"
    path.write_text(json.dumps(cfg))
    assert _run("direct", str(path), tmp_path) == 0


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


def test_direct_rejects_unknown_mode(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(D2_CONFIG, mode="bloch")))
    assert _run("direct", str(path), tmp_path) == 2
    err = capsys.readouterr().err
    assert "'bloch'" in err and "magnetic_bloch" in err


def test_direct_box_rejects_flux(tmp_path, capsys):
    # the box takes its phases from the field; a flux would be ignored
    cfg = dict(D2_CONFIG, mode="box", box_size=8.0, box_points=16,
               field={"b12": 0.1})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert _run("direct", str(path), tmp_path) == 2
    err = capsys.readouterr().err
    assert "flux 1/4" in err and "'field'" in err
    cfg["flux"] = "0"
    path.write_text(json.dumps(cfg))
    assert _run("direct", str(path), tmp_path) == 0


def test_radius_override_is_recorded(config_path, tmp_path, monkeypatch):
    radii = []
    hoppings = effective.fourier_hoppings

    def recorded(values, grid, radius, **kwargs):
        radii.append(radius)
        return hoppings(values, grid, radius, **kwargs)

    monkeypatch.setattr(effective, "fourier_hoppings", recorded)
    assert _run("effective", config_path, tmp_path, ["--radius", "5"]) == 0
    meta = json.loads((tmp_path / "effective_meta.json").read_text())
    assert radii == [5]
    assert meta["config"]["numerics"]["radius"] == 5


def test_relativistic_fd_size_limit_is_a_config_error(tmp_path, capsys,
                                                      monkeypatch):
    def stencil(*args, **kwargs):
        raise AssertionError("the operator must not be built")

    monkeypatch.setattr(direct, "_fd_stencil", stencil)
    cfg = json.loads(json.dumps(D2_CONFIG))
    cfg["symbol"]["kind"] = "relativistic"
    cfg.update(mode="box", flux="0", box_size=6.0, box_points=128,
               field={"b12": 0.3})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert _run("direct", str(path), tmp_path) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "16384" in err


def test_too_wide_direct_window_is_a_config_error(tmp_path, capsys):
    # the window's eigenvalue count is known before any iteration
    cfg = dict(D2_CONFIG, window=[-1, 20])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert _run("direct", str(path), tmp_path) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "window [-1.0, 20.0] holds" in err


def test_direct_fibers_are_recorded(tmp_path):
    # k_resolution 2 at flux 1/4: k2 = 0 and pi are 2 pi/4 apart twice
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
    assert summary["count"] == 2 * 2 * 4  # every grid point, q subbands
    assert _run("compare", str(path), tmp_path) == 0
    report = json.loads((tmp_path / "compare.json").read_text())
    assert [run["direct_fibers"] for run in report["runs"]] == [2]


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
    ("direct", D2_CONFIG, ("field", "matrix"), [[0.0]], "field.matrix"),
    ("direct", D2_CONFIG, ("field", "b12"), "abc", "field.b12"),
    ("direct", D2_CONFIG, ("field", "epsilon"), True, "field.epsilon"),
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
], ids=["no_basis", "non_square_basis", "resolution_text",
        "resolution_fraction", "no_bands", "negative_cutoff",
        "band_index_too_large", "field_matrix_1x1", "b12_text",
        "epsilon_bool", "amplitude_nan", "amplitude_list", "amplitude_text",
        "symbol_text", "potential_text", "config_list"])
def test_malformed_config_is_config_error(command, base, keys, value, named,
                                          tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_edited(base, keys, value)))
    assert _run(command, str(path), tmp_path) == 2
    err = capsys.readouterr().err
    assert "config error" in err and named in err


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


COMPARE_CONFIG = dict(D2_CONFIG, epsilons=[[0.08, "1/4"]],
                      numerics={**D2_CONFIG["numerics"], "radius": 3})


@pytest.mark.parametrize("command, base, key, value", [
    ("effective", BASE_CONFIG, "k_resolution", "x"),
    ("effective", BASE_CONFIG, "k_resolution", 8.7),
    ("effective", BASE_CONFIG, "window", [0.5, -0.5]),
    ("effective", BASE_CONFIG, "window", [float("nan"), 0.5]),
    ("effective", dict(BASE_CONFIG, mode="box"), "box_size", 0),
    ("effective", BASE_CONFIG, "lambda_points", "many"),
    ("scan", BASE_CONFIG, "k_resolution", 0),
    ("grushin", BASE_CONFIG, "samples", "many"),
    ("direct", D2_CONFIG, "points_per_cell", 16.5),
    ("direct", D2_CONFIG, "points_per_cell", 8),
    ("direct", dict(BASE_CONFIG, mode="zero_field_bloch"), "k_resolution", 1),
    ("direct", dict(D2_CONFIG, mode="box", flux="0"), "box_size", "big"),
    ("direct", dict(D2_CONFIG, mode="box", flux="0", box_points=32),
     "box_size", 0),
    ("direct", dict(D2_CONFIG, mode="box", flux="0"), "box_points", -16),
    ("compare", COMPARE_CONFIG, "direct_k_resolution", "x"),
    ("compare", COMPARE_CONFIG, "k_resolution", 2.5),
    ("grushin", BASE_CONFIG, "seed", "abc"),
    ("grushin", BASE_CONFIG, "seed", 1.5),
    ("grushin", BASE_CONFIG, "seed", -1),
    ("compare", COMPARE_CONFIG, "epsilons", [[0.08]]),
    ("compare", COMPARE_CONFIG, "epsilons", 5),
], ids=["k_resolution_text", "k_resolution_fraction", "window_reversed",
        "window_nan", "effective_box_size_zero", "lambda_points_text",
        "scan_k_resolution_zero", "samples_text", "points_per_cell_fraction",
        "points_per_cell_too_coarse", "zero_field_k_resolution_one",
        "direct_box_size_text", "direct_box_size_zero", "box_points_negative",
        "direct_k_resolution_text", "compare_k_resolution_fraction",
        "seed_text", "seed_fraction", "seed_negative", "epsilons_single",
        "epsilons_number"])
def test_malformed_top_level_key_is_config_error(command, base, key, value,
                                                 tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_edited(base, (key,), value)))
    assert _run(command, str(path), tmp_path) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err


def test_nan_lattice_basis_is_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_edited(BASE_CONFIG, ("lattice", "basis"),
                                       [[float("nan")]])))
    assert _run("bands", str(path), tmp_path) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "lattice.basis" in err
