"""Command-line front end: bands, section, grushin, effective, direct,
compare, scan.

One JSON configuration file per run; deterministic CSV bodies (17
significant digits, comma delimiter, LF endings) with run metadata in a
sidecar JSON.  Exit codes: 0 success, 2 configuration error (an
InputError: an input that the model or a size limit cannot take, from a
config key or from a library check), 3 numeric error.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import bloch, direct, effective, grushin, section, spectra, symbols
from .lattice import (MAX_CLOUD_VALUES, InputError, Lattice, bz_grid,
                      dual_shell, magnetic_momenta)
from .magnetic import magnetic_cells


def _write_csv(path: Path, header: list, columns) -> None:
    """One row per entry of the 1-D columns, each formatted by one %
    format: integer columns as %d, the others as %.17g (the text of str of
    an int and of f"{x:.17g}" of a float)."""
    columns = [np.asarray(col) for col in columns]
    row = ",".join("%d" if col.dtype.kind in "iu" else "%.17g"
                   for col in columns)
    lines = [row % values for values in zip(*(col.tolist()
                                              for col in columns))]
    path.write_text("\n".join([",".join(header), *lines]) + "\n")


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------- config


def _only(section: dict, name: str, keys) -> None:
    """Refuse the keys of section outside keys, named name.key (key alone
    for the top level, name ""): a key that nothing reads exits 2 rather
    than pass unnoticed."""
    unknown = [f"{name}.{key}" if name else key
               for key in sorted(set(section) - set(keys))]
    if unknown:
        raise InputError(f"unknown config key {', '.join(unknown)}: "
                          f"{name or 'the top level'} takes only "
                          f"{', '.join(sorted(keys))}")


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read config: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InputError(f"the config must be a JSON object, got {cfg!r}")
    _only(cfg, "", CONFIG_KEYS)
    return cfg


def _number(section: dict, name: str, key: str, default,
            ok=lambda value: True, need: str = "a number"):
    """section[key] (default when absent) as default's type, else an
    InputError naming name.key (key alone for the top level, name ""):
    no strings, booleans, non-integers for an integer key, or values that
    fail ok."""
    value = section.get(key, default)
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(default, int) and not float(value).is_integer()
            or not ok(value)):
        label = f"{name}.{key}" if name else key
        raise InputError(f"{label} must be {need}, got {value!r}")
    return type(default)(value)


def build_lattice(cfg: dict) -> Lattice:
    lc = cfg.get("lattice")
    if not lc:
        raise InputError("missing 'lattice' section")
    if not isinstance(lc, dict) or "basis" not in lc:
        raise InputError("missing 'lattice.basis'")
    _only(lc, "lattice", ("basis",))
    try:
        return Lattice(basis=np.asarray(lc["basis"], dtype=float))
    except (TypeError, ValueError) as exc:
        raise InputError(f"lattice.basis {lc['basis']!r}: {exc}") from exc


def build_symbol(cfg: dict, lattice: Lattice) -> symbols.PeriodicSymbol:
    sc = cfg.get("symbol")
    if not sc or not isinstance(sc, dict):
        raise InputError(f"'symbol' must be a non-empty object, got {sc!r}")
    _only(sc, "symbol", ("kind", "potential"))
    kind_name = sc.get("kind", "nonrelativistic")
    kinds = {"nonrelativistic": symbols.Nonrelativistic,
             "relativistic": symbols.Relativistic}
    # a list or an object is no key: test the type before the lookup
    kind = kinds.get(kind_name) if isinstance(kind_name, str) else None
    if kind is None:
        raise InputError(f"unknown symbol kind {kind_name!r} in symbol.kind")
    pc = sc.get("potential", {"name": "zero"})
    if not isinstance(pc, dict):
        raise InputError(f"'symbol.potential' must be an object, got {pc!r}")
    _only(pc, "symbol.potential", ("name", "amplitude"))
    name = pc.get("name", "zero")
    factory = (symbols.POTENTIAL_CATALOG.get(name) if isinstance(name, str)
               else None)
    if factory is None:
        raise InputError(
            f"unknown potential {name!r} in symbol.potential.name")
    amplitude = () if name == "zero" else (
        _number(pc, "symbol.potential", "amplitude", 1.0),)
    try:
        pot = factory(lattice, *amplitude)
    except ValueError as exc:
        raise InputError(
            f"hypothesis H.3 violated: potential not admissible ({exc})"
        ) from exc
    sym = symbols.PeriodicSymbol(kind=kind(), potential=pot)
    ok, _ = symbols.symbol_ellipticity_check(sym)
    if not ok:
        raise InputError(
            "hypothesis H.4 violated: symbol fails the ellipticity sample check"
        )
    return sym


# numerics key: (default, test of the value, the test in words)
NUMERICS = {
    "cutoff": (6.0, lambda v: 0 < v < np.inf, "a positive number"),
    "resolution": (64, lambda v: v >= 2, "an integer >= 2"),
    "n_bands": (4, lambda v: v >= 1, "a positive integer"),
    "radius": (8, lambda v: v >= 0, "an integer >= 0"),
    "gap_tol": (bloch.GAP_TOL, lambda v: 0 <= v < np.inf, "a number >= 0"),
    "merge_tol": (0.0, lambda v: 0 <= v < np.inf, "a number >= 0"),
    "band_index": (0, lambda v: v >= 0, "an integer >= 0"),
}

# top-level scalar: (default, test of the value, the test in words); one
# meaning per key: k_resolution is the Peierls branch grid of effective, scan
# and compare, direct_k_resolution the reference grid of direct and compare
SETTINGS = {
    "seed": (0, lambda v: v >= 0, "an integer >= 0"),
    "samples": (20, lambda v: 1 <= v <= MAX_CLOUD_VALUES,
                f"an integer in [1, {MAX_CLOUD_VALUES}]"),
    "k_resolution": (32, lambda v: v >= 1, "a positive integer"),
    "direct_k_resolution": (8, lambda v: v >= 1, "a positive integer"),
    "lambda_points": (400, lambda v: 1 <= v <= MAX_CLOUD_VALUES,
                      f"an integer in [1, {MAX_CLOUD_VALUES}]"),
    "points_per_cell": (direct.MIN_POINTS_PER_CELL,
                        lambda v: v >= direct.MIN_POINTS_PER_CELL,
                        f"an integer >= {direct.MIN_POINTS_PER_CELL}"),
}

# the top-level keys: the sections, flux, window and epsilons, read by
# name, and SETTINGS
CONFIG_KEYS = frozenset({"lattice", "symbol", "numerics", "flux", "window",
                         "epsilons", *SETTINGS})


def _numerics(cfg: dict) -> dict:
    """The numerics section and the top-level SETTINGS in one dict (no key
    is in both), each value checked or its default."""
    section = cfg.get("numerics", {})
    if not isinstance(section, dict):
        raise InputError(f"'numerics' must be an object, got {section!r}")
    _only(section, "numerics", NUMERICS)
    num = {key: _number(section, "numerics", key, *spec)
           for key, spec in NUMERICS.items()}
    if num["band_index"] >= num["n_bands"]:
        raise InputError(f"numerics.band_index {num['band_index']} must be "
                          f"below numerics.n_bands {num['n_bands']}")
    return num | {key: _number(cfg, "", key, *spec)
                  for key, spec in SETTINGS.items()}


def _resolve(cfg: dict, lattice: Lattice) -> dict:
    """Every top-level value, checked per config before any command runs,
    so one config can feed a whole pipeline."""
    return {**_numerics(cfg), **build_field(cfg, lattice),
            "window": _parse_window(cfg.get("window"))}


def build_field(cfg: dict, lattice: Lattice) -> dict:
    """flux, which fixes every operator's field b12 = 2 pi * flux /
    det(basis) (no key sets a field), and compare's [epsilon, flux] pairs
    epsilons (None when absent)."""
    return {"flux": _parse_flux(cfg.get("flux", "0"), lattice),
            "epsilons": _parse_epsilons(cfg.get("epsilons"), lattice)}


def _parse_flux(text, lattice: Lattice) -> Fraction:
    try:
        flux = Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"flux must be a rational p/q: {text!r}") from exc
    magnetic_cells(flux, lattice.dim)  # H.5: 0 in d=1
    return flux


# the last band solve of this process, (key, vector_band, BandStructure),
# or None: see _bands
_last_solve = None


def _bands(sym, settings: dict, vector_band=None, workers=None):
    """The bands of sym on the grid of the settings' resolution, cutoff
    and n_bands, with the vectors of band vector_band when it is given,
    in at most workers chunks.

    The last solve is kept, and a request reuses it when every input of
    the solve is equal (the lattice basis, the kinetic kind, the
    potential's coefficients, resolution, cutoff and n_bands) and it asks
    for no vectors or for the kept band's.  ?syevr and ?heevr at range
    "I" give the same eigenvalues bit for bit with and without vectors,
    and the chunk count changes no bit, so a reuse returns what a solve
    would.  The bands and vectors are read-only: every caller shares them.
    A failed solve leaves the kept one.
    """
    global _last_solve
    lattice = sym.lattice
    key = (lattice.basis.tobytes(), sym.kind,
           sorted(sym.potential.coeffs.items()), settings["resolution"],
           settings["cutoff"], settings["n_bands"])
    # one read: a thread sees a whole entry, and at worst solves again
    last_key, last_band, last = _last_solve or (None,) * 3
    if last_key == key and vector_band in (None, last_band):
        return last
    bands = bloch.compute_bands(
        sym, bz_grid(lattice, settings["resolution"]),
        dual_shell(lattice, settings["cutoff"]), settings["n_bands"],
        vector_band=vector_band, workers=workers)
    for table in (bands.bands, bands.vectors):
        if table is not None:
            table.flags.writeable = False
    _last_solve = key, vector_band, bands
    return bands


def _parse_window(win):
    if win is None:
        return None
    # type(v), not isinstance: a boolean is no number here
    if not (isinstance(win, list) and len(win) == 2
            and all(type(v) in (int, float) for v in win)
            and np.all(np.isfinite(win)) and win[0] < win[1]):
        raise InputError("window must be a pair [lo, hi] of finite "
                          f"numbers with lo < hi, got {win!r}")
    return float(win[0]), float(win[1])


def _parse_epsilons(pairs, lattice: Lattice):
    """The [epsilon, "p/q"] pairs as (epsilon, flux); epsilon scales the
    field, so all pairs share one flux / epsilon."""
    if pairs is None:
        return None
    if not (pairs and isinstance(pairs, list) and all(
            isinstance(pair, list) and len(pair) == 2 for pair in pairs)):
        raise InputError("epsilons must be a non-empty list of [epsilon, "
                          f"flux] pairs, got {pairs!r}")
    bad = [pair for pair in pairs
           if type(pair[0]) not in (int, float) or not 0 < pair[0] < np.inf]
    if bad:
        raise InputError("epsilons: each epsilon must be a finite positive "
                          f"number, unlike {bad!r}")
    eps_flux = [(eps, _parse_flux(text, lattice)) for eps, text in pairs]
    ratios = [float(flux) / eps for eps, flux in eps_flux]
    bad = [pair for pair, r in zip(pairs, ratios)
           if abs(r - ratios[0]) > 1e-9 * max(abs(r), abs(ratios[0]))]
    if bad:
        raise InputError("flux / epsilon must be the same for every pair: "
                          f"{pairs[0]!r} gives {ratios[0]!r}, unlike {bad!r}")
    return eps_flux


def _window(settings: dict, intervals) -> tuple:
    """The configured window, else a margin around the selected band of
    the band_intervals."""
    if settings["window"] is not None:
        return settings["window"]
    iv = intervals.intervals
    k = settings["band_index"]
    pad = 0.1 * (iv[k, 1] - iv[k, 0] + 1e-6)
    return float(iv[k, 0] - pad), float(iv[k, 1] + pad)


def _require_simple_band(bands, settings):
    """The band_intervals, once the selected band is certified simple.
    Only a band below the last computed one can be: band_intervals never
    certifies the last."""
    k = settings["band_index"]
    if settings["n_bands"] <= k + 1:
        raise InputError(
            f"numerics.n_bands {settings['n_bands']} must exceed "
            f"numerics.band_index + 1 = {k + 1}: only a computed band above "
            "the selected one certifies its gap")
    iv = bloch.band_intervals(bands, settings["gap_tol"])
    if not iv.simple_flags[k]:
        raise InputError(
            "hypothesis H.7 violated: requested band is not certified simple"
        )
    return iv


# -------------------------------------------------------------- commands


def cmd_bands(settings, lattice: Lattice, sym, out: Path) -> dict:
    bands = _bands(sym, settings)
    # one row per (grid point, band), bands fastest
    n_points, n_bands = bands.bands.shape
    frac = np.repeat(bands.grid.coords(), n_bands, axis=0)
    header = [f"frac{ax + 1}" for ax in range(lattice.dim)] + ["band", "value"]
    _write_csv(out / "bands.csv", header,
               [*frac.T, np.tile(np.arange(n_bands), n_points),
                bands.bands.ravel()])
    iv = bloch.band_intervals(bands, settings["gap_tol"])
    _write_json(out / "intervals.json", {
        "intervals": iv.intervals.tolist(),
        "simple": iv.simple_flags.tolist(),
        "gap_tol": settings["gap_tol"],
    })
    return {"rows": n_points * n_bands}


def cmd_section(settings, lattice: Lattice, sym, out: Path) -> dict:
    bands = _bands(sym, settings, settings["band_index"])
    _require_simple_band(bands, settings)
    sec = section.transport_section(bands)
    # each vector against its own fiber H(xi) v = V_hat v + kinetic(xi + g) v,
    # 32 points at a time to bound the temporaries
    assemble = bloch.FiberAssembler(sym, bands.shell)
    vecs, lam = sec.vectors, bands.bands[:, settings["band_index"], None]
    points = bands.grid.points()
    chunks = [slice(i, i + 32) for i in range(0, len(vecs), 32)]
    resid = np.concatenate([np.linalg.norm(
        assemble.apply(points[s], vecs[s]) - lam[s] * vecs[s], axis=1)
        for s in chunks])
    # the norm of each vector on its own: norm(axis=1) sums in another order
    norms = np.array([np.linalg.norm(v) for v in vecs])
    header = [f"frac{ax + 1}" for ax in range(lattice.dim)] + [
        "norm", "residual", "c0_re", "c0_im"]
    _write_csv(out / "section.csv", header,
               [*bands.grid.coords().T, norms, resid, vecs[:, 0].real,
                vecs[:, 0].imag])
    _write_json(out / "kappa.json", {"phase_log": sec.phase_log})
    return {"rows": len(vecs)}


def cmd_grushin(settings, lattice: Lattice, sym, out: Path) -> dict:
    bands = _bands(sym, settings, settings["band_index"])
    _require_simple_band(bands, settings)
    sec = section.transport_section(bands)
    family = grushin.trial_from_section(sec)
    k = settings["band_index"]
    rng = np.random.default_rng(settings["seed"])
    n_samples = settings["samples"]
    pts = bands.grid.points()
    band = bands.bands[:, k]
    lo, hi = band.min() - 0.5, band.max() + 0.5
    # every (grid point, lambda) pair in the draw order of the seed, then
    # stacked Grushin matrices, as many per solve as one admitted fiber has
    # entries, so the temporaries stay bounded whatever the sample count
    idx = np.empty(n_samples, dtype=int)
    lams = np.empty(n_samples)
    for s in range(n_samples):
        idx[s] = rng.integers(0, pts.shape[0])
        lams[s] = rng.uniform(lo, hi)
    step = max(1, bloch.MAX_BAND_ENTRIES // sum(family.shape[-2:])**2)
    worst_resid = 0.0
    worst_dev = 0.0
    for start in range(0, n_samples, step):
        part = slice(start, start + step)
        xi = pts[idx[part]]
        fm = bloch.assemble_fiber_matrix(sym, xi, bands.shell)
        inv = grushin.invert_grushin(
            grushin.assemble_grushin(fm, lams[part], family, idx[part]))
        worst_resid = max(worst_resid, inv.residual)
        # the scalar abs of each sample: np.abs rounds some complex moduli
        # differently
        worst_dev = max(worst_dev, *(
            abs(e - d) for e, d in zip(inv.e_minus_plus[:, 0, 0],
                                       lams[part] - band[idx[part]])))
    report = {"max_residual": worst_resid,
              "max_effective_deviation": float(worst_dev),
              "samples": n_samples}
    _write_json(out / "grushin.json", report)
    return report


def _band_hoppings(sym, settings, workers=None):
    """The band_intervals of the band solve, in at most workers chunks,
    and the selected band's hoppings."""
    bands = _bands(sym, settings, workers=workers)
    intervals = _require_simple_band(bands, settings)
    hops = effective.fourier_hoppings(bands.bands[:, settings["band_index"]],
                                      bands.grid, settings["radius"])
    return intervals, hops


def cmd_effective(settings, lattice: Lattice, sym, out: Path) -> dict:
    flux = settings["flux"]
    intervals, hops = _band_hoppings(sym, settings)
    window = _window(settings, intervals)
    spec_set = spectra.SpectrumSet(
        effective.bloch_eigenvalue_cloud(hops, flux, settings["k_resolution"]),
        window, settings["merge_tol"])
    _write_json(out / "spectrum.json", {
        "intervals": spec_set.merged_intervals.tolist(),
        "window": list(window),
        "merge_tol": settings["merge_tol"],
        "flux": str(flux),
    })
    return {"intervals": spec_set.merged_intervals.tolist()}


def cmd_scan(settings, lattice: Lattice, sym, out: Path) -> dict:
    flux = settings["flux"]
    intervals, hops = _band_hoppings(sym, settings)
    window = _window(settings, intervals)
    lam_grid = np.linspace(window[0], window[1], settings["lambda_points"])
    margins = effective.lambda_scan(hops, flux, lam_grid,
                                    k_resolution=settings["k_resolution"])
    _write_csv(out / "scan.csv", ["lambda", "margin"], [lam_grid, margins])
    return {"lambda_points": int(lam_grid.size)}


class _Jobs:
    """solve(i) for each i of work, ordered by work, largest first and ties
    in index order (Graham's longest-job-first list scheduling, SIAM J.
    Appl. Math. 17, 416 (1969)): the calling thread takes from the large
    end, a worker thread from the small end.  Each result or exception is
    kept in slot i, so the outcome does not depend on who ran what."""

    def __init__(self, solve, work):
        self.solve, self.slots = solve, [None] * len(work)
        self.pending = deque(sorted(range(len(work)), key=lambda i: -work[i]))

    def run(self, small_end: bool = False) -> None:
        take = self.pending.pop if small_end else self.pending.popleft
        while True:
            try:
                i = take()
            except IndexError:  # no job left
                return
            try:
                self.slots[i] = self.solve(i)
            except Exception as exc:
                self.slots[i] = exc

    def results(self) -> list:
        """The results, once the jobs left have run here; the first error
        in index order is raised."""
        self.run()
        for slot in self.slots:
            if isinstance(slot, Exception):
                raise slot
        return self.slots


def _reference(settings, lattice: Lattice, sym, fluxes):
    """The reference solve of the full magnetic operator at each of the
    fluxes, as jobs(window) -> _Jobs of one (SpectrumSet, fibers) per
    flux.

    The solver comes from the flux: flux 0 is the plane-wave band solve
    at direct_k_resolution, any other flux direct.direct_spectrum on the
    finite-difference magnetic-Bloch fibers, of work fibers times
    unknowns per fiber.  Each flux is checked, and its operator and
    momentum grid built, here, before any band solve; jobs certifies the
    lower window edge once for all nonzero fluxes.  The flux-0 band grid
    comes from _bands, so it is the command's own band solve when
    direct_k_resolution equals resolution; a window that reaches its last
    band raises InputError.  Flux 0 (work 0) comes alone: flux / epsilon
    is the same for every pair.
    """
    k_res, ppc = settings["direct_k_resolution"], settings["points_per_cell"]
    if 0 in fluxes and k_res < 2:  # a band grid needs two points per axis
        raise InputError("direct_k_resolution must be an integer >= 2 at "
                          f"flux 0, the plane-wave band grid, got {k_res}")
    discs = [direct.DirectDiscretization(sym, flux, ppc) if flux else None
             for flux in fluxes]
    fibers = [len(magnetic_momenta(lattice.dim, flux.denominator, k_res))
              if flux else 0 for flux in fluxes]
    merge_tol = settings["merge_tol"]

    def jobs(window):
        if 0 in fluxes:
            bands = _bands(sym, {**settings, "resolution": k_res})
            # as in _require_simple_band: the table shows nothing above it
            if window[1] >= bands.bands[:, -1].min():
                raise InputError(
                    f"the window top {window[1]:g} is not below "
                    f"{bands.bands[:, -1].min():.6g}, where the last of the "
                    f"numerics.n_bands {settings['n_bands']} computed bands "
                    "starts: only the bands below it are certified")
        # one lower-edge certificate holds for every flux
        lower_clear = any(fluxes) and direct.certified_below(sym, ppc, window)

        def solve(i):
            if discs[i] is None:
                return (spectra.SpectrumSet(bands.bands, window, merge_tol),
                        bands.solved)
            return direct.direct_spectrum(discs[i], window, merge_tol, k_res,
                                          lower_clear), fibers[i]
        # unknowns per fiber: q unit cells of points_per_cell^d points each
        return _Jobs(solve, [count * flux.denominator
                             for flux, count in zip(fluxes, fibers)])
    return jobs


def cmd_direct(settings, lattice: Lattice, sym, out: Path) -> dict:
    flux = settings["flux"]
    solve = _reference(settings, lattice, sym, [flux])
    intervals = None
    if settings["window"] is None:
        intervals = bloch.band_intervals(_bands(sym, settings),
                                         settings["gap_tol"])
    [(spec_set, fibers)] = solve(_window(settings, intervals)).results()
    _write_csv(out / "eigenvalues.csv", ["value"], [spec_set.points])
    return {
        "mode": "magnetic_bloch" if flux else "zero_field_bloch",
        "count": int(spec_set.points.size),
        "direct_fibers": fibers,
        "intervals": spec_set.merged_intervals.tolist(),
    }


def cmd_compare(settings, lattice: Lattice, sym, out: Path) -> dict:
    """The Peierls spectrum against the reference at each [epsilon, flux].

    With a window key, nonzero fluxes and bloch._workers() > 1, a worker
    thread builds the Peierls side (the band solve, in _workers() - 1
    chunks, then one cloud per flux) and then takes the reference jobs of
    the smallest fluxes, while this thread certifies the lower edge and
    takes those of the largest; both spend most of their time in calls
    that release the GIL.  Otherwise the band solve goes first, for the
    default window or the flux-0 reference, and this thread runs all the
    jobs.  Errors keep the order of the serial run: the band side's, the
    first reference error in config order, then each flux's cloud and
    distance in turn.
    """
    eps_flux = settings["epsilons"]
    if eps_flux is None:
        raise InputError("compare needs 'epsilons', a list of [epsilon, "
                          "flux] pairs")
    fluxes = [flux for _, flux in eps_flux]
    solve = _reference(settings, lattice, sym, fluxes)
    merge_tol = settings["merge_tol"]
    workers = bloch._workers()

    def cloud(hops, flux, window):
        return spectra.SpectrumSet(effective.bloch_eigenvalue_cloud(
            hops, flux, settings["k_resolution"]), window, merge_tol)

    if workers == 1 or settings["window"] is None or 0 in fluxes:
        intervals, hops = _band_hoppings(sym, settings)
        window = _window(settings, intervals)
        references = solve(window).results()
        clouds = (cloud(hops, flux, window) for flux in fluxes)
    else:
        window = settings["window"]
        with ThreadPoolExecutor(1) as pool:
            side = pool.submit(_band_hoppings, sym, settings, workers - 1)
            futures = [pool.submit(lambda flux: cloud(
                side.result()[1], flux, window), flux) for flux in fluxes]
            try:
                jobs = solve(window)
            except Exception:
                # the band side's error wins, as when it ran first
                pool.shutdown(cancel_futures=True)
                side.result()
                raise
            # after the clouds the worker takes the smallest fluxes' jobs
            smallest = pool.submit(jobs.run, True)
            jobs.run()
            smallest.result()
        side.result()
        references = jobs.results()
        clouds = (future.result() for future in futures)
    pairs, detail = [], []
    for (eps, flux), (dir_set, fibers), eff_set in zip(eps_flux, references,
                                                       clouds):
        d_h, flagged = spectra.hausdorff_distance(eff_set, dir_set)
        detail.append({
            "epsilon": float(eps), "flux": str(flux), "d_H": d_h,
            "flagged": flagged, "direct_fibers": fibers,
            "effective_intervals": eff_set.merged_intervals.tolist(),
            "direct_intervals": dir_set.merged_intervals.tolist(),
        })
        if not flagged:
            pairs.append((float(eps), d_h))
    payload = {"window": list(window), "merge_tol": merge_tol,
               "runs": detail}
    if len(pairs) >= 3:
        fit = spectra.lipschitz_fit(pairs)
        payload.update(fitted_slope=fit.fitted_slope, max_ratio=fit.max_ratio,
                       residual=fit.residual)
    _write_json(out / "compare.json", payload)
    return payload


COMMANDS = {"bands": cmd_bands, "section": cmd_section, "grushin": cmd_grushin,
            "effective": cmd_effective, "direct": cmd_direct,
            "compare": cmd_compare, "scan": cmd_scan}


PARSER = argparse.ArgumentParser(
    prog="peierls",
    description="Bloch bands, effective lattice operators, and magnetic "
                "spectra",
)
PARSER.add_argument("command", choices=sorted(COMMANDS))
PARSER.add_argument("--config", required=True, help="JSON config file")
PARSER.add_argument("--out", default=".", help="output directory")


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        cfg = load_config(args.config)
        lattice = build_lattice(cfg)
        settings = _resolve(cfg, lattice)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with bloch.one_blas_thread():
            summary = COMMANDS[args.command](settings, lattice,
                                             build_symbol(cfg, lattice), out)
    except InputError as exc:
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
