"""Per-layer metrics of one traced pass, from its spans and returned objects.

Times are sums of span self times (see ``tracer.self_times``); a name that
ends in ``.`` takes every span of that module.  Counts are span counts or
call counters.  Health values are computed from the objects the traced
functions returned, after the pass has been timed.
"""

from __future__ import annotations

import numpy as np

from tracer import self_times

# metric -> span names whose self times it sums
TIME_METRICS = {
    "bloch.assemble_s": ("bloch.assemble_fiber_matrix",),
    "bloch.solve_s": ("bloch.compute_bands",),
    "cli.resolve_s": ("cli.build_lattice", "cli.build_symbol",
                      "cli.build_field", "cli._numerics"),
    "cli.self_s": ("cli.main",),
    "symbols.ellipticity_s": ("symbols.symbol_ellipticity_check",),
    "section.transport_s": ("section.",),
    "grushin.assemble_s": ("grushin.assemble_grushin",),
    "grushin.invert_s": ("grushin.invert_grushin",),
    "effective.hoppings_s": ("effective.fourier_hoppings",),
    "effective.cloud_s": ("effective.bloch_eigenvalue_cloud",),
    "direct.assemble_s": ("direct.DirectDiscretization.bloch_matrix",),
    "direct.eigs_s": ("direct.direct_spectrum",),
    "spectra.merge_s": ("spectra.SpectrumSet.__post_init__",),
    "spectra.hausdorff_s": ("spectra.hausdorff_distance",),
    "lattice.grid_s": ("lattice.",),
}

# metric -> span name it counts
COUNT_METRICS = {
    "bloch.assemble_calls": "bloch.assemble_fiber_matrix",
    "bloch.compute_bands_calls": "bloch.compute_bands",
}

# name -> (unit, better); the order is the order of BENCHMARK.json
PER_LAYER = {
    "bloch.assemble_s": ("s", "lower"),
    "bloch.assemble_calls": ("count", "lower"),
    "bloch.solve_s": ("s", "lower"),
    "bloch.fibers": ("count", "lower"),
    "bloch.fiber_dim": ("count", "lower"),
    "bloch.compute_bands_calls": ("count", "lower"),
    "bloch.gap_margin": ("energy", "higher"),
    "cli.resolve_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "symbols.ellipticity_s": ("s", "lower"),
    "section.transport_s": ("s", "lower"),
    "section.min_overlap": ("ratio", "higher"),
    "grushin.assemble_s": ("s", "lower"),
    "grushin.invert_s": ("s", "lower"),
    "grushin.max_cond": ("ratio", "lower"),
    "effective.hoppings_s": ("s", "lower"),
    "effective.asymmetry": ("energy", "lower"),
    "effective.tail_norm": ("energy", "lower"),
    "effective.cloud_s": ("s", "lower"),
    "effective.fiber_solves": ("count", "lower"),
    "effective.fiber_dim": ("count", "lower"),
    "direct.assemble_s": ("s", "lower"),
    "direct.eigs_s": ("s", "lower"),
    "direct.eigsh_calls": ("count", "lower"),
    "direct.unknowns": ("count", "lower"),
    "direct.window_count": ("count", "higher"),
    "spectra.merge_s": ("s", "lower"),
    "spectra.hausdorff_s": ("s", "lower"),
    "spectra.dH_max": ("energy", "lower"),
    "lattice.grid_s": ("s", "lower"),
    "lattice.shell_size": ("count", "lower"),
    "trace.pipeline_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.uncovered_share": ("ratio", "lower"),
}

# health values: worst over the run in this direction (min or max)
WORST = {
    "bloch.gap_margin": min,
    "section.min_overlap": min,
    "grushin.max_cond": max,
    "effective.asymmetry": max,
    "effective.tail_norm": max,
    "spectra.dH_max": max,
}


def _matches(name: str, keys: tuple) -> bool:
    return any(name == k or (k.endswith(".") and name.startswith(k))
               for k in keys)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def min_neighbour_overlap(section) -> float:
    """min |<v_i, v_j>| over neighbouring grid points of a band section.

    Neighbours across the zone boundary are skipped: there the section is
    related by a dual-lattice shift, not by transport.
    """
    grid = section.grid
    res = grid.resolution
    vecs = section.vectors.reshape((res,) * grid.dim + (-1,))
    best = np.inf
    for ax in range(grid.dim):
        a = np.take(vecs, range(res - 1), axis=ax)
        b = np.take(vecs, range(1, res), axis=ax)
        best = min(best, float(np.abs(np.sum(np.conj(a) * b, axis=-1)).min()))
    return best


def outer_ring_norm(hops) -> float:
    """Largest 2-norm among the hoppings on the outermost ring."""
    radius = max(max(abs(a) for a in alpha) for alpha in hops.hoppings)
    return max(float(np.linalg.norm(blk, 2))
               for alpha, blk in hops.hoppings.items()
               if max(abs(a) for a in alpha) == radius)


def pass_metrics(spans: list, observed: list, counters: dict,
                 scale: float = 1.0) -> dict:
    """Per-layer values of one traced pass (spans[0] is the pass itself).

    Times are multiplied by ``scale``, the pass's machine-speed correction.
    """
    selfs = self_times(spans)
    out = {m: 0.0 for m in TIME_METRICS}
    for (_, name, _, _, _), own in zip(spans, selfs):
        for metric, keys in TIME_METRICS.items():
            if _matches(name, keys):
                out[metric] += own * scale
    names = [s[1] for s in spans]
    for metric, span_name in COUNT_METRICS.items():
        out[metric] = names.count(span_name)
    out["direct.eigsh_calls"] = counters.get("direct.eigsh_calls", 0)
    out["trace.spans"] = len(spans) - 1

    root = spans[0]
    top = sum(end - start for _, _, start, end, parent in spans[1:]
              if parent == root[0])
    out["trace.uncovered_share"] = (root[3] - root[2] - top) / (
        root[3] - root[2])

    sizes = {"bloch.fibers": 0, "bloch.fiber_dim": 0,
              "effective.fiber_solves": 0, "effective.fiber_dim": 0,
              "direct.unknowns": 0, "direct.window_count": 0,
              "lattice.shell_size": 0}
    worst: dict = {}

    def note(metric, value):
        worst[metric] = (value if metric not in worst
                         else WORST[metric](worst[metric], value))

    for name, args, kwargs, result in observed:
        if name == "bloch.compute_bands":
            sizes["bloch.fibers"] += result.bands.shape[0]
            sizes["bloch.fiber_dim"] = max(sizes["bloch.fiber_dim"],
                                            result.shell.size)
        elif name == "bloch.band_intervals":
            iv = result.intervals
            if iv.shape[0] >= 2:
                note("bloch.gap_margin", float(iv[1, 0] - iv[0, 1]))
        elif name == "section.transport_section":
            note("section.min_overlap", min_neighbour_overlap(result))
        elif name == "grushin.invert_grushin":
            note("grushin.max_cond", result.condition_number)
        elif name == "effective.fourier_hoppings":
            note("effective.asymmetry", result.asymmetry)
            note("effective.tail_norm", outer_ring_norm(result))
        elif name == "effective.bloch_eigenvalue_cloud":
            hops = _arg(args, kwargs, 0, "hops")
            flux = _arg(args, kwargs, 1, "flux")
            dim = flux.denominator * hops.n
            sizes["effective.fiber_solves"] += result.size // dim
            sizes["effective.fiber_dim"] = max(
                sizes["effective.fiber_dim"], dim)
        elif name == "direct.DirectDiscretization.bloch_matrix":
            sizes["direct.unknowns"] = max(sizes["direct.unknowns"],
                                            result.shape[0])
        elif name == "direct.direct_spectrum":
            sizes["direct.window_count"] += result.points.size
        elif name == "spectra.hausdorff_distance":
            note("spectra.dH_max", result[0])
        elif name == "lattice.dual_shell":
            sizes["lattice.shell_size"] = max(sizes["lattice.shell_size"],
                                               result.size)
    out.update(sizes)
    out.update(worst)
    return out


def run_metrics(per_pass: list) -> dict:
    """Median over traced passes; health values take the worst pass."""
    out = {}
    for metric in PER_LAYER:
        values = [p[metric] for p in per_pass if metric in p]
        if not values:
            out[metric] = 0.0
        elif metric in WORST:
            out[metric] = WORST[metric](values)
        else:
            out[metric] = float(np.median(values))
    return out
