"""Seeded inputs, reference values and output checks for the bench workloads.

Each workload is a closed loop of passes.  A pass writes one JSON config,
runs a fixed list of ``peierls`` CLI commands on it in-process and leaves
their output files in a directory; ``check`` then reads those files and
compares them with references computed here from ``scipy.special`` alone.
No ``peierls`` code is used to produce a reference.

References (Mathieu characteristic values, q = 4a) for the operator
-d^2/dy^2 + 2a cos(y) on a 2*pi-periodic cell:

    band 0 = [mathieu_a(0, q), mathieu_b(1, q)] / 4
    band 1 = [mathieu_a(1, q), mathieu_b(2, q)] / 4

The separable d=2 operator -Laplace + 2a(cos y1 + cos y2) is the sum of two
such problems, so its band 0 is twice the d=1 band 0.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.special as ss

TWO_PI = 2.0 * math.pi

# tolerances of the output checks
BAND_EDGE_TOL = 1e-9  # plane-wave band edges against Mathieu values
EFFECTIVE_EDGE_TOL = 1e-6  # radius-8 Fourier resummation of band 0 at a=0.2
GRUSHIN_TOL = 1e-8
SECTION_NORM_TOL = 1e-10
# At the zone boundary the section is a dual-lattice shift of a transported
# vector, which drops the coefficients leaving the shell: the residual there
# is the plane-wave truncation error (7e-6 for the d=2 fixture at cutoff 6).
SECTION_RESIDUAL_TOL = 1e-4
COMPARE_FACTOR = 5.0  # d_H(effective, direct) <= 5 * merge_tol


def mathieu_band(a: float, band: int) -> tuple:
    """[lo, hi] of a band of -d^2/dy^2 + 2a cos(y), from scipy.special."""
    q = 4.0 * a
    if band == 0:
        return ss.mathieu_a(0, q) / 4.0, ss.mathieu_b(1, q) / 4.0
    if band == 1:
        return ss.mathieu_a(1, q) / 4.0, ss.mathieu_b(2, q) / 4.0
    raise ValueError("references exist for bands 0 and 1")


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple  # CLI commands run in order by one pass
    amplitude_range: tuple  # seeded cosine amplitude a, uniform in [lo, hi]
    numerics: dict
    dim: int
    extra: dict = field(default_factory=dict)  # other top-level config keys
    window_pad: float | None = None  # explicit window: 2x band 0 +- pad (d=2)
    max_passes: int = 1000  # inputs generated per run; the loop stops there

    def inputs(self, seed: int) -> list:
        """Per-pass inputs: amplitude plus its reference band edges."""
        rng = np.random.default_rng(seed)
        lo, hi = self.amplitude_range
        out = []
        for a in rng.uniform(lo, hi, size=self.max_passes):
            a = float(a)
            out.append({
                "amplitude": a,
                "band0": mathieu_band(a, 0),
                "band1": mathieu_band(a, 1),
            })
        return out

    def config(self, inp: dict) -> dict:
        if self.dim == 1:
            lattice = {"basis": [[TWO_PI]]}
            potential = "cosine"
        else:
            lattice = {"basis": [[TWO_PI, 0.0], [0.0, TWO_PI]]}
            potential = "separable_cosine_2d"
        cfg = {
            "lattice": lattice,
            "symbol": {
                "kind": "nonrelativistic",
                "potential": {"name": potential,
                              "amplitude": inp["amplitude"]},
            },
            "numerics": dict(self.numerics),
        }
        cfg.update(self.extra)
        if self.window_pad is not None:
            lo, hi = (self.dim * e for e in inp["band0"])
            cfg["window"] = [lo - self.window_pad, hi + self.window_pad]
        return cfg

    def smaller(self) -> "Workload":
        """The same pipeline at smoke-test size."""
        small = SMOKE_SIZES[self.name]
        return Workload(
            name=self.name, commands=self.commands,
            amplitude_range=self.amplitude_range,
            numerics={**self.numerics, **small.get("numerics", {})},
            dim=self.dim, extra={**self.extra, **small.get("extra", {})},
            window_pad=self.window_pad, max_passes=4,
        )


# Sizes are chosen so that one pass is short against a run of the benchmark
# (a few seconds at most), which keeps the per-run median steady.
WORKLOADS = {
    # d=1, 17x17 fibers: per-call overhead, repeated config resolution and
    # band solves, the ellipticity check and file writing dominate.
    "mathieu_sweep": Workload(
        name="mathieu_sweep",
        commands=("bands", "section", "grushin", "effective", "scan",
                  "direct"),
        amplitude_range=(0.2, 1.0),
        numerics={"cutoff": 8.0, "resolution": 64, "n_bands": 4,
                  "radius": 8},
        dim=1,
        extra={"flux": "0"},
    ),
    # d=2, 113x113 fibers: dense eigh with eigenvectors and per-point fiber
    # assembly dominate; no magnetic layer runs.
    "separable_bands": Workload(
        name="separable_bands",
        commands=("bands", "section"),
        amplitude_range=(0.45, 0.55),
        numerics={"cutoff": 6.0, "resolution": 16, "n_bands": 4},
        dim=2,
        max_passes=200,
    ),
    # d=2 magnetic: the magnetic-Bloch eigenvalue cloud and the windowed FD
    # eigensolve dominate; the band layer does little.
    "separable_compare": Workload(
        name="separable_compare",
        commands=("compare",),
        amplitude_range=(0.45, 0.55),
        numerics={"cutoff": 6.0, "resolution": 12, "n_bands": 4,
                  "radius": 5, "merge_tol": 2e-3},
        dim=2,
        extra={
            "epsilons": [[0.08, "1/4"], [0.04, "1/8"]],
            "k_resolution": 8,
            "direct_k_resolution": 2,
            "points_per_cell": 16,
        },
        window_pad=0.08,
        max_passes=200,
    ),
}

SMOKE_SIZES = {
    "mathieu_sweep": {"numerics": {"resolution": 32, "radius": 4}},
    "separable_bands": {"numerics": {"resolution": 8}},
    "separable_compare": {
        "numerics": {"resolution": 8, "cutoff": 4.0, "radius": 3},
        "extra": {"epsilons": [[0.08, "1/4"]], "k_resolution": 6,
                  "direct_k_resolution": 1},
    },
}


# ------------------------------------------------------------------ checks


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(x: float, y: float, tol: float) -> bool:
    return abs(x - y) <= tol


def _check_band_edges(out: Path, inp: dict, dim: int, bands: tuple) -> None:
    iv = _read_json(out / "intervals.json")["intervals"]
    for k in bands:
        ref = inp[f"band{k}"]
        got = iv[k]
        _require(
            _close(got[0], dim * ref[0], BAND_EDGE_TOL)
            and _close(got[1], dim * ref[1], BAND_EDGE_TOL),
            f"band {k} edges {got} differ from reference "
            f"{[dim * ref[0], dim * ref[1]]}",
        )


def _check_section(out: Path) -> None:
    rows = _read_csv(out / "section.csv")
    _require(len(rows) > 0, "section.csv is empty")
    norm = max(abs(float(r["norm"]) - 1.0) for r in rows)
    resid = max(float(r["residual"]) for r in rows)
    _require(norm <= SECTION_NORM_TOL and resid <= SECTION_RESIDUAL_TOL,
             f"section norm deviation {norm:.2e} / residual {resid:.2e}")
    _read_json(out / "kappa.json")


def _check_hull(intervals: list, ref: tuple, tol: float, what: str) -> None:
    _require(len(intervals) > 0, f"{what} spectrum is empty")
    lo = min(a for a, _ in intervals)
    hi = max(b for _, b in intervals)
    _require(_close(lo, ref[0], tol) and _close(hi, ref[1], tol),
             f"{what} spectrum hull [{lo}, {hi}] differs from band 0 {ref}")


def check(workload: Workload, out: Path, inp: dict) -> dict:
    """Check one pass's output files; returns values reported per pass.

    Raises CheckFailed on a wrong output.
    """
    name = workload.name
    if name == "mathieu_sweep":
        _check_band_edges(out, inp, 1, (0, 1))
        _check_section(out)
        g = _read_json(out / "grushin.json")
        _require(g["max_residual"] <= GRUSHIN_TOL
                 and g["max_effective_deviation"] <= GRUSHIN_TOL,
                 f"grushin residual {g['max_residual']:.2e} / deviation "
                 f"{g['max_effective_deviation']:.2e}")
        eff = _read_json(out / "spectrum.json")["intervals"]
        _check_hull(eff, inp["band0"], EFFECTIVE_EDGE_TOL, "effective")
        direct = _read_json(out / "direct_meta.json")["summary"]["intervals"]
        _check_hull(direct, inp["band0"], BAND_EDGE_TOL, "direct")
        margins = [float(r["margin"]) for r in _read_csv(out / "scan.csv")]
        _require(len(margins) > 0
                 and all(math.isfinite(m) and m >= 0.0 for m in margins),
                 "scan margins are not finite and nonnegative")
        return {}
    if name == "separable_bands":
        _check_band_edges(out, inp, 2, (0,))
        _check_section(out)
        return {}
    if name == "separable_compare":
        report = _read_json(out / "compare.json")
        limit = COMPARE_FACTOR * report["merge_tol"]
        runs = report["runs"]
        _require(len(runs) == len(workload.extra["epsilons"]),
                 "compare.json lacks runs")
        for run in runs:
            _require(not run["flagged"], f"flux {run['flux']} flagged")
            _require(run["d_H"] <= limit,
                     f"d_H {run['d_H']:.4g} > {limit:.4g} at flux "
                     f"{run['flux']}")
        return {"dH_max": max(run["d_H"] for run in runs)}
    raise ValueError(f"unknown workload {name!r}")
