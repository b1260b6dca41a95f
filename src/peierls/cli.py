"""Command-line front end: bands, section, grushin, effective, direct,
compare, scan.

One JSON configuration file per run; deterministic CSV bodies (17
significant digits, comma delimiter, LF endings) with run metadata in a
sidecar JSON.  Exit codes: 0 success, 2 configuration error, 3 numeric
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import bloch, direct, effective, grushin, section, spectra, symbols
from .lattice import GridTooLargeError, Lattice, bz_grid, dual_shell
from .magnetic import MagneticField


class ConfigError(ValueError):
    pass


def _fmt(x) -> str:
    if isinstance(x, complex):
        return f"{x.real:.17g}+{x.imag:.17g}j"
    return f"{float(x):.17g}"


def _write_csv(path: Path, header: list, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if not isinstance(v, (str, int)) else str(v)
                              for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------- config


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"the config must be a JSON object, got {cfg!r}")
    return cfg


def _number(section: dict, name: str, key: str, default,
            ok=lambda value: True, need: str = "a number"):
    """section[key] (default when absent) as default's type, else a
    ConfigError naming name.key (key alone for the top level, name ""):
    no strings, booleans, non-integers for an integer key, or values that
    fail ok."""
    value = section.get(key, default)
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(default, int) and not float(value).is_integer()
            or not ok(value)):
        label = f"{name}.{key}" if name else key
        raise ConfigError(f"{label} must be {need}, got {value!r}")
    return type(default)(value)


def _positive_int(cfg: dict, key: str, default: int) -> int:
    """A top-level integer setting >= 1."""
    return _number(cfg, "", key, default, lambda v: v >= 1,
                   "a positive integer")


def build_lattice(cfg: dict) -> Lattice:
    lc = cfg.get("lattice")
    if not lc:
        raise ConfigError("missing 'lattice' section")
    if not isinstance(lc, dict) or "basis" not in lc:
        raise ConfigError("missing 'lattice.basis'")
    try:
        return Lattice(basis=np.asarray(lc["basis"], dtype=float))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"lattice.basis {lc['basis']!r}: {exc}") from exc


def build_field(cfg: dict):
    fc = cfg.get("field")
    if fc is None:
        return None
    if not isinstance(fc, dict):
        raise ConfigError(f"'field' must be an object, got {fc!r}")
    matrix = fc.get("matrix")
    if matrix is not None:
        try:
            m = np.asarray(matrix, dtype=float)
        except (TypeError, ValueError):
            m = None
        if m is None or m.shape != (2, 2):
            raise ConfigError("field.matrix must be a 2 x 2 matrix of "
                              f"numbers, got {matrix!r}")
        if not np.allclose(m, -m.T, atol=1e-12):
            raise ConfigError(
                "hypothesis H.1 violated: magnetic field matrix must be "
                "antisymmetric (B12 = -B21)"
            )
        b12 = float(m[0, 1])
    else:
        b12 = _number(fc, "field", "b12", 0.0)
    epsilon = _number(fc, "field", "epsilon", 1.0)
    if not (np.isfinite(b12) and np.isfinite(epsilon)):
        raise ConfigError("hypothesis H.2 violated: field must be finite")
    kind = fc.get("kind", "constant")
    if kind != "constant":
        raise ConfigError(
            "hypothesis H.6 violated: the solvers need a constant field, "
            f"got field.kind {kind!r}"
        )
    return MagneticField(b12=b12, epsilon=epsilon)


def build_symbol(cfg: dict, lattice: Lattice) -> symbols.PeriodicSymbol:
    sc = cfg.get("symbol")
    if not sc or not isinstance(sc, dict):
        raise ConfigError(f"'symbol' must be a non-empty object, got {sc!r}")
    kind_name = sc.get("kind", "nonrelativistic")
    kind = {"nonrelativistic": symbols.Nonrelativistic,
            "relativistic": symbols.Relativistic}.get(kind_name)
    if kind is None:
        raise ConfigError(f"unknown symbol kind {kind_name!r}")
    pc = sc.get("potential", {"name": "zero"})
    if not isinstance(pc, dict):
        raise ConfigError(f"'symbol.potential' must be an object, got {pc!r}")
    name = pc.get("name", "zero")
    factory = symbols.POTENTIAL_CATALOG.get(name)
    if factory is None:
        raise ConfigError(f"unknown potential {name!r}")
    amplitude = () if name == "zero" else (
        _number(pc, "symbol.potential", "amplitude", 1.0),)
    try:
        pot = factory(lattice, *amplitude)
    except ValueError as exc:
        raise ConfigError(
            f"hypothesis H.3 violated: potential not admissible ({exc})"
        ) from exc
    sym = symbols.PeriodicSymbol(kind=kind(), potential=pot)
    ok, _ = symbols.symbol_ellipticity_check(sym, radius=4.0, samples=8)
    if not ok:
        raise ConfigError(
            "hypothesis H.4 violated: symbol fails the ellipticity sample check"
        )
    return sym


# numerics key: (default, test of the value, the test in words)
NUMERICS = {
    "cutoff": (6.0, lambda v: 0 < v < np.inf, "a positive number"),
    "resolution": (64, lambda v: v >= 2, "an integer >= 2"),
    "n_bands": (4, lambda v: v >= 1, "a positive integer"),
    "radius": (8, lambda v: v >= 0, "an integer >= 0"),
    "gap_tol": (1e-6, lambda v: 0 <= v < np.inf, "a number >= 0"),
    "merge_tol": (1e-3, lambda v: 0 <= v < np.inf, "a number >= 0"),
    "band_index": (0, lambda v: v >= 0, "an integer >= 0"),
}


def _numerics(cfg: dict) -> dict:
    section = cfg.get("numerics", {})
    if not isinstance(section, dict):
        raise ConfigError(f"'numerics' must be an object, got {section!r}")
    num = {key: _number(section, "numerics", key, default, ok, need)
           for key, (default, ok, need) in NUMERICS.items()}
    if num["band_index"] >= num["n_bands"]:
        raise ConfigError(f"numerics.band_index {num['band_index']} must be "
                          f"below numerics.n_bands {num['n_bands']}")
    return num


def _parse_flux(text, lattice: Lattice) -> Fraction:
    try:
        flux = Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"flux must be a rational p/q: {text!r}") from exc
    if flux != 0 and lattice.dim < 2:
        raise ConfigError(
            f"hypothesis H.5 violated: flux {flux} needs a d=2 lattice; a "
            "magnetic field is a 2-form, so in d=1 the flux must be 0"
        )
    return flux


def _bands(lattice: Lattice, sym, num: dict, keep_vectors=False):
    grid = bz_grid(lattice, num["resolution"])
    shell = dual_shell(lattice, num["cutoff"])
    return bloch.compute_bands(sym, grid, shell, num["n_bands"],
                               keep_vectors=keep_vectors)


def _window(cfg: dict, num: dict, bands) -> tuple:
    """The configured window, else a margin around the selected band."""
    win = cfg.get("window")
    if win is not None:
        if (not isinstance(win, (list, tuple)) or len(win) != 2
                or not all(isinstance(v, (int, float))
                           and not isinstance(v, bool) for v in win)
                or not (np.all(np.isfinite(win)) and win[0] < win[1])):
            raise ConfigError("window must be a pair [lo, hi] of finite "
                              f"numbers with lo < hi, got {win!r}")
        return float(win[0]), float(win[1])
    iv = bloch.band_intervals(bands, num["gap_tol"]).intervals
    k = num["band_index"]
    pad = 0.1 * (iv[k, 1] - iv[k, 0] + 1e-6)
    return float(iv[k, 0] - pad), float(iv[k, 1] + pad)


def _require_simple_band(bands, num) -> None:
    iv = bloch.band_intervals(bands, num["gap_tol"])
    if not iv.simple_flags[num["band_index"]]:
        raise ConfigError(
            "hypothesis H.7 violated: requested band is not certified simple"
        )


# -------------------------------------------------------------- commands


def cmd_bands(cfg, num, out: Path) -> dict:
    lattice = build_lattice(cfg)
    sym = build_symbol(cfg, lattice)
    bands = _bands(lattice, sym, num)
    rows = []
    for i, frac in enumerate(bands.grid.coords()):
        for j in range(bands.n_bands):
            rows.append(list(frac) + [j, bands.bands[i, j]])
    dim = lattice.dim
    header = [f"frac{ax + 1}" for ax in range(dim)] + ["band", "value"]
    _write_csv(out / "bands.csv", header, rows)
    iv = bloch.band_intervals(bands, num["gap_tol"])
    _write_json(out / "intervals.json", {
        "intervals": iv.intervals.tolist(),
        "simple": iv.simple_flags.tolist(),
        "gap_tol": num["gap_tol"],
    })
    return {"rows": len(rows)}


def cmd_section(cfg, num, out: Path) -> dict:
    lattice = build_lattice(cfg)
    sym = build_symbol(cfg, lattice)
    bands = _bands(lattice, sym, num, keep_vectors=True)
    _require_simple_band(bands, num)
    sec = section.transport_section(bands, num["band_index"])
    # each vector against its own fiber H(xi) v = V_hat v + kinetic(xi + g) v,
    # 32 points at a time to bound the temporaries
    assemble = bloch.FiberAssembler(sym, bands.shell)
    vecs, lam = sec.vectors, bands.bands[:, num["band_index"], None]
    points = bands.grid.points()
    chunks = [slice(i, i + 32) for i in range(0, len(vecs), 32)]
    resid = np.concatenate([np.linalg.norm(
        assemble.apply(points[s], vecs[s]) - lam[s] * vecs[s], axis=1)
        for s in chunks])
    rows = [list(frac) + [np.linalg.norm(v), r, v[0].real, v[0].imag]
            for frac, v, r in zip(bands.grid.coords(), vecs, resid)]
    dim = lattice.dim
    header = [f"frac{ax + 1}" for ax in range(dim)] + [
        "norm", "residual", "c0_re", "c0_im"]
    _write_csv(out / "section.csv", header, rows)
    _write_json(out / "kappa.json", {"phase_log": sec.phase_log})
    return {"rows": len(rows)}


def cmd_grushin(cfg, num, out: Path) -> dict:
    lattice = build_lattice(cfg)
    sym = build_symbol(cfg, lattice)
    bands = _bands(lattice, sym, num, keep_vectors=True)
    _require_simple_band(bands, num)
    sec = section.transport_section(bands, num["band_index"])
    family = grushin.trial_from_section(sec)
    k = num["band_index"]
    rng = np.random.default_rng(_number(cfg, "", "seed", 0, lambda v: v >= 0,
                                        "an integer >= 0"))
    n_samples = _positive_int(cfg, "samples", 20)
    assemble = bloch.FiberAssembler(sym, bands.shell)
    pts = bands.grid.points()
    worst_resid = 0.0
    worst_dev = 0.0
    for _ in range(n_samples):
        i = int(rng.integers(0, pts.shape[0]))
        lam = float(rng.uniform(bands.bands[:, k].min() - 0.5,
                                bands.bands[:, k].max() + 0.5))
        fm = bloch.FiberMatrix(xi=pts[i], shell=bands.shell,
                               entries=assemble(pts[i]))
        gm = grushin.assemble_grushin(fm, lam, family, i)
        inv = grushin.invert_grushin(gm)
        worst_resid = max(worst_resid, inv.residual)
        dev = abs(inv.e_minus_plus[0, 0] - (lam - bands.bands[i, k]))
        worst_dev = max(worst_dev, dev)
    report = {"max_residual": worst_resid,
              "max_effective_deviation": worst_dev,
              "samples": n_samples}
    _write_json(out / "grushin.json", report)
    return report


def _band_hoppings(cfg, num):
    lattice = build_lattice(cfg)
    sym = build_symbol(cfg, lattice)
    bands = _bands(lattice, sym, num)
    _require_simple_band(bands, num)
    k = num["band_index"]
    hops = effective.fourier_hoppings(
        bands.bands[:, k], bands.grid, num["radius"], source_tag=f"band{k}"
    )
    return lattice, sym, bands, hops


def cmd_effective(cfg, num, out: Path) -> dict:
    lattice, sym, bands, hops = _band_hoppings(cfg, num)
    flux = _parse_flux(cfg.get("flux", "0"), lattice)
    mode = cfg.get("mode", "bloch")
    window = _window(cfg, num, bands)
    merge_tol = num["merge_tol"]
    cloud = effective.bloch_eigenvalue_cloud(
        hops, flux, _positive_int(cfg, "k_resolution", 32))
    if mode == "box":
        op = effective.assemble_effective(
            hops, "box", flux, box_size=_positive_int(cfg, "box_size", 16))
        spec_set = effective.effective_spectrum(op, window, merge_tol)
    elif mode == "bloch":
        spec_set = spectra.SpectrumSet(
            points=cloud, window=window, merge_tol=merge_tol)
    else:
        raise ConfigError(f"unknown effective mode {mode!r}")
    lam_grid = np.linspace(window[0], window[1],
                           _positive_int(cfg, "lambda_points", 400))
    margins = effective.cloud_margins(cloud, lam_grid)
    _write_csv(out / "margin.csv", ["lambda", "margin"],
               zip(lam_grid, margins))
    _write_json(out / "spectrum.json", {
        "intervals": spec_set.merged_intervals.tolist(),
        "window": list(window),
        "merge_tol": merge_tol,
        "flux": str(flux),
    })
    return {"intervals": spec_set.merged_intervals.tolist()}


def cmd_scan(cfg, num, out: Path) -> dict:
    lattice, sym, bands, hops = _band_hoppings(cfg, num)
    flux = _parse_flux(cfg.get("flux", "0"), lattice)
    window = _window(cfg, num, bands)
    lam_grid = np.linspace(window[0], window[1],
                           _positive_int(cfg, "lambda_points", 400))
    margins = effective.lambda_scan(
        hops, flux, lam_grid,
        k_resolution=_positive_int(cfg, "k_resolution", 64))
    _write_csv(out / "scan.csv", ["lambda", "margin"], zip(lam_grid, margins))
    return {"lambda_points": int(lam_grid.size)}


def _magnetic_bloch_field(
    field, flux: Fraction, lattice: Lattice
) -> MagneticField:
    """The constant field whose unit-cell flux is 2 pi * flux.

    A configured field must be that field: the finite-difference link
    phases follow the field and the magnetic-cell wrap follows the flux.
    """
    consistent = effective.field_for_flux(flux, lattice)
    if field is None:
        return consistent
    b, b_flux = field.strength, consistent.b12
    if abs(b - b_flux) > 1e-9 * max(1.0, abs(b_flux)):
        raise ConfigError(
            f"field epsilon * b12 = {b!r} does not match flux {flux}: the "
            f"consistent field is b12 = {b_flux!r}"
        )
    return field


def cmd_direct(cfg, num, out: Path) -> dict:
    lattice = build_lattice(cfg)
    sym = build_symbol(cfg, lattice)
    field = build_field(cfg)
    mode = cfg.get("mode", "zero_field_bloch")
    if mode not in direct.MODES:
        raise ConfigError(f"unknown direct mode {mode!r}, not in {direct.MODES}")
    flux = _parse_flux(cfg.get("flux", "0"), lattice)
    if mode == "magnetic_bloch":
        field = _magnetic_bloch_field(field, flux, lattice)
    elif mode == "zero_field_bloch":
        b = field.strength if field is not None else 0.0
        if flux != 0 or b != 0.0:
            raise ConfigError(
                "mode zero_field_bloch solves at zero field, but the config "
                f"sets flux {flux} and field strength {b!r}; use mode "
                "'magnetic_bloch'"
            )
    elif flux != 0:
        raise ConfigError(
            f"mode box takes its field from 'field' alone, but the config "
            f"sets flux {flux}; set flux 0 and give the field in 'field'"
        )
    # only a box has a side length; the other modes ignore box_size
    box = mode == "box"
    disc = direct.assemble_direct(
        sym, field, mode, flux=flux,
        points_per_cell=_positive_int(cfg, "points_per_cell", 16),
        box_points=_number(cfg, "", "box_points", 0, lambda v: v >= 0,
                           "an integer >= 0"),
        box_size=_number(cfg, "", "box_size", 0.0,
                         lambda v: (v > 0 if box else v >= 0) and v < np.inf,
                         "a finite number " + ("> 0" if box else ">= 0")),
    )
    bands = None if cfg.get("window") is not None else _bands(
        lattice, sym, num)
    window = _window(cfg, num, bands)
    # a zero-field band grid needs two points per axis
    least = 2 if mode == "zero_field_bloch" else 1
    k_res = _number(cfg, "", "k_resolution", 8, lambda v: v >= least,
                    f"an integer >= {least}")
    spec_set = direct.direct_spectrum(
        disc, window, num["merge_tol"],
        k_resolution=k_res,
        n_bands=num["n_bands"],
        shell_radius=num["cutoff"],
    )
    _write_csv(out / "eigenvalues.csv", ["value"],
               ([v] for v in spec_set.points))
    return {
        "mode": mode,
        "count": int(spec_set.points.size),
        "direct_fibers": direct.distinct_fibers(disc, k_res, num["cutoff"]),
        "intervals": spec_set.merged_intervals.tolist(),
    }


def _check_flux_per_epsilon(eps_flux) -> None:
    """epsilon scales the field, so all pairs share one flux / epsilon."""
    def show(pairs):
        return ", ".join(f"[{eps}, {str(flux)!r}]" for eps, flux in pairs)

    try:
        eps = [float(e) for e, _ in eps_flux]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"epsilon must be a number: {exc}") from exc
    bad = [pair for pair, e in zip(eps_flux, eps) if not e > 0.0]
    if bad:
        raise ConfigError(f"epsilon must be positive: {show(bad)}")
    ratios = [float(flux) / e for (_, flux), e in zip(eps_flux, eps)]
    bad = [pair for pair, r in zip(eps_flux, ratios)
           if abs(r - ratios[0]) > 1e-9 * max(abs(r), abs(ratios[0]))]
    if bad:
        raise ConfigError(
            "flux / epsilon must be the same for every pair: "
            f"{show(eps_flux[:1])} gives {ratios[0]!r}, unlike {show(bad)}"
        )


def cmd_compare(cfg, num, out: Path) -> dict:
    lattice, sym, bands, hops = _band_hoppings(cfg, num)
    window = _window(cfg, num, bands)
    merge_tol = num["merge_tol"]
    eps_flux = cfg.get("epsilons")  # list of [epsilon, "p/q"]
    if not (eps_flux and isinstance(eps_flux, list) and all(
            isinstance(pair, list) and len(pair) == 2 for pair in eps_flux)):
        raise ConfigError("compare needs 'epsilons', a list of [epsilon, "
                          f"flux] pairs, got {eps_flux!r}")
    eps_flux = [(eps, _parse_flux(text, lattice)) for eps, text in eps_flux]
    _check_flux_per_epsilon(eps_flux)
    k_res_eff = _positive_int(cfg, "k_resolution", 32)
    k_res_dir = _positive_int(cfg, "direct_k_resolution", 4)
    ppc = _positive_int(cfg, "points_per_cell", 16)
    pairs = []
    detail = []
    for eps, flux in eps_flux:
        field = effective.field_for_flux(flux, lattice)
        op = effective.assemble_effective(hops, "magnetic_bloch", flux)
        eff_set = effective.effective_spectrum(
            op, window, merge_tol, k_resolution=k_res_eff)
        disc = direct.assemble_direct(
            sym, field, "magnetic_bloch", flux=flux, points_per_cell=ppc)
        dir_set = direct.direct_spectrum(
            disc, window, merge_tol, k_resolution=k_res_dir,
            n_bands=num["n_bands"])
        d_h, flagged = spectra.hausdorff_distance(eff_set, dir_set)
        detail.append({
            "epsilon": float(eps), "flux": str(flux), "d_H": d_h,
            "flagged": flagged,
            "direct_fibers": direct.distinct_fibers(disc, k_res_dir),
            "effective_intervals": eff_set.merged_intervals.tolist(),
            "direct_intervals": dir_set.merged_intervals.tolist(),
        })
        if not flagged:
            pairs.append((float(eps), d_h))
    payload = {"window": list(window), "merge_tol": merge_tol,
               "runs": detail}
    if len(pairs) >= 3:
        fit = spectra.lipschitz_fit(pairs)
        payload["fitted_slope"] = fit.fitted_slope
        payload["max_ratio"] = fit.max_ratio
        payload["residual"] = fit.residual
    _write_json(out / "compare.json", payload)
    return payload


COMMANDS = {
    "bands": cmd_bands,
    "section": cmd_section,
    "grushin": cmd_grushin,
    "effective": cmd_effective,
    "direct": cmd_direct,
    "compare": cmd_compare,
    "scan": cmd_scan,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="peierls",
        description="Bloch bands, effective lattice operators, and "
                    "magnetic spectra",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--flux", help="override flux ratio p/q")
    parser.add_argument("--mode", help="override mode")
    parser.add_argument("--radius", type=int, help="override hopping radius")
    parser.add_argument("--window", nargs=2, type=float,
                        help="override energy window")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.flux is not None:
            cfg["flux"] = args.flux
        if args.mode is not None:
            cfg["mode"] = args.mode
        if args.window is not None:
            cfg["window"] = list(args.window)
        if args.radius is not None:
            cfg.setdefault("numerics", {})["radius"] = args.radius
        num = _numerics(cfg)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        summary = COMMANDS[args.command](cfg, num, out)
    except (ConfigError, GridTooLargeError, direct.GridTooCoarseError,
            direct.WindowTooWideError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numeric error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3
    meta = {"command": args.command, "config": cfg, "summary": summary}
    _write_json(out / f"{args.command}_meta.json", meta)
    return 0


if __name__ == "__main__":
    sys.exit(main())
