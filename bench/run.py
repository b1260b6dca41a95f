#!/usr/bin/env python3
"""Benchmark of the peierls CLI pipelines.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports ``peierls`` from its
``src/``.  One client drives the workload in a closed loop: a pass runs the
workload's CLI commands in-process through ``peierls.cli.main`` and the next
pass starts when it ends, until ``--seconds`` have passed.  Every pass's
output files are checked against references from ``scipy.special``.

With ``--trace 0`` the end-to-end metrics are measured.  With ``--trace 1``
passes alternate between untraced and traced; the traced ones give the
per-layer metrics and the difference of the two medians is the tracing
overhead.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit.  A result file with the machine record is
written under ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
WORK = BENCH_DIR / "_work"

# One BLAS thread keeps runs steady on a shared machine; it never exceeds
# the number of CPUs.
BLAS_THREADS = 1
SETUP_PROBES = 4  # extra processes that repeat the set-up, for its median
P90_MIN_PASSES = 100  # p90 needs at least ten passes beyond it

END_TO_END_UNITS = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB"}

# The machine's speed drifts by tens of percent over seconds to minutes when
# other tenants load it.  Every timed interval is paired with a run of a fixed
# calibration kernel next to it, and reported as its wall time multiplied by
# CAL_NOMINAL_S / (calibration time): seconds at a nominal machine speed.
# The raw wall times are kept in the result file.
CAL_NOMINAL_S = 0.024


def calibrate(np, rounds: int = 1) -> float:
    """Wall time of a fixed mix of Python, NumPy, LAPACK and ARPACK work."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    mat = np.cos(np.arange(1600.0)).reshape(40, 40)
    mat = mat + mat.T
    x = np.arange(2000.0)
    n = 16
    lap = sp.diags([4.0 + 0j, -1.0, -1.0, -1.0, -1.0], [0, 1, -1, n, -n],
                   shape=(n * n, n * n), format="csr")
    lap = lap + sp.diags(np.cos(np.arange(n * n)))
    v0 = np.ones(n * n, dtype=complex)
    t0 = time.perf_counter()
    for _ in range(rounds):
        table = {}
        for i in range(1500):
            key = (i % 97, i % 13)
            table[key] = table.get(key, 0) + i
        for _ in range(15):
            np.linalg.eigvalsh(mat)
        y = x
        for _ in range(150):
            y = np.sin(y) + 1.0
        spla.eigsh(lap, k=6, which="SA", v0=v0, return_eigenvectors=False)
    return (time.perf_counter() - t0) / rounds


class UnknownWorkload(ValueError):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only time the set-up and print it as JSON")
    return p.parse_args(argv)


def set_blas_threads() -> int:
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def setup(workload_name: str, seed: int):
    """Imports, seeded inputs and reference values; returns them timed.

    The calibration kernel runs right after the set-up, for its correction.
    """
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import peierls.cli
    import workloads

    workload = workloads.WORKLOADS.get(workload_name)
    if workload is None:
        raise UnknownWorkload(f"unknown workload {workload_name!r}; choose "
                              f"from {sorted(workloads.WORKLOADS)}")
    inputs = workload.inputs(seed)
    elapsed = time.perf_counter() - t0
    if Path(peierls.__file__).resolve().parent != (SRC / "peierls").resolve():
        raise RuntimeError(f"imported peierls from {peierls.__file__}")
    import numpy as np

    cal = statistics.median(calibrate(np) for _ in range(3))
    return {"wall_s": elapsed, "cal_s": cal}, workload, inputs


def probe_setup(workload_name: str, seed: int) -> dict:
    """Set-up time measured in a fresh process (interpreter start excluded)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload_name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def machine_record(seed: int, threads: int, load) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "loadavg_start": list(load),
        "seed": seed,
    }


def run_pass(cli_main, commands, cfg_path: Path, out: Path):
    """Run one pass's commands; returns an error message or None."""
    for cmd in commands:
        rc = cli_main([cmd, "--config", str(cfg_path), "--out", str(out)])
        if rc != 0:
            return f"{cmd} exited with code {rc}"
    return None


def benchmark(args, threads: int, load) -> dict:
    own_setup, workload, inputs = setup(args.workload, args.seed)
    setups = [own_setup] + [probe_setup(args.workload, args.seed)
                            for _ in range(SETUP_PROBES)]

    import numpy as np
    import peierls.cli
    from workloads import CheckFailed, check
    import layers
    from tracer import Tracer

    tracer = Tracer()
    work = WORK / f"{args.workload}-{os.getpid()}"
    times = {False: [], True: []}  # traced? -> corrected pass times
    wall = {False: [], True: []}  # traced? -> raw pass wall times
    per_pass, span_log, failures, values = [], [], [], []
    failed_times = []
    attempted = 0
    min_passes = 2 if args.trace else 1  # a traced run needs a traced pass
    cal_before = calibrate(np)
    cals = [cal_before]
    rounds = 1
    deadline = time.perf_counter() + args.seconds
    try:
        while attempted < len(inputs) and (
                attempted < min_passes or time.perf_counter() < deadline):
            inp = inputs[attempted]
            traced = bool(args.trace) and attempted % 2 == 1
            attempted += 1
            shutil.rmtree(work, ignore_errors=True)
            out = work / "out"
            out.mkdir(parents=True)
            cfg_path = work / "config.json"
            cfg_path.write_text(json.dumps(workload.config(inp)))
            error = None
            t0 = time.perf_counter()
            try:
                if traced:
                    tracer.reset()
                    with tracer.installed(), tracer.span("pass"):
                        error = run_pass(peierls.cli.main, workload.commands,
                                         cfg_path, out)
                else:
                    error = run_pass(peierls.cli.main, workload.commands,
                                     cfg_path, out)
            except Exception:  # a crash fails the pass, not the run
                traceback.print_exc()
                error = "pass raised an exception"
            elapsed = time.perf_counter() - t0
            cal_after = calibrate(np, rounds)
            cals.append(cal_after)
            corrected = elapsed * CAL_NOMINAL_S / (0.5 * (cal_before
                                                          + cal_after))
            cal_before = cal_after
            # calibrate for about 5% of a pass, so long passes get more
            rounds = max(1, min(20, round(0.05 * elapsed / CAL_NOMINAL_S)))
            if error is None:
                try:
                    values.append(check(workload, out, inp))
                except (CheckFailed, OSError, KeyError, ValueError) as exc:
                    error = f"check failed: {exc}"
            if error is not None:
                failures.append({"pass": attempted - 1,
                                 "amplitude": inp["amplitude"],
                                 "error": error})
                print(f"pass {attempted - 1} failed: {error}",
                      file=sys.stderr)
                failed_times.append(corrected)
                continue
            times[traced].append(corrected)
            wall[traced].append(elapsed)
            if traced:
                per_pass.append(layers.pass_metrics(
                    tracer.spans, tracer.observed, tracer.counters,
                    scale=corrected / elapsed))
                span_log.append(tracer.spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    untraced = times[False]
    e2e = {
        "setup_s": statistics.median(
            t["wall_s"] * CAL_NOMINAL_S / t["cal_s"] for t in setups),
        # with no pass passing, report the failed passes' time
        "pipeline_s": statistics.median(untraced or times[True]
                                        or failed_times),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    dh = [v["dH_max"] for v in values if "dH_max" in v]
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": {"numerics": workload.numerics, **workload.extra},
        "machine": machine_record(args.seed, threads, load),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "end_to_end": e2e,
        "also": {
            "failed_ratio": len(failures) / max(attempted, 1),
            "pipeline_p90_s": (statistics.quantiles(untraced, n=10)[8]
                               if len(untraced) >= P90_MIN_PASSES else None),
            "dH_max": max(dh) if dh else None,
            "passes_timed": len(untraced),
            "pipeline_wall_s": (statistics.median(wall[False])
                                if wall[False] else None),
            "setup_wall_s": statistics.median(t["wall_s"] for t in setups),
        },
        "setup_samples": setups,
        "pass_times": untraced,
        "pass_wall_times": wall[False],
        "calibrations": cals,
    }
    if args.trace:
        per_layer = layers.run_metrics(per_pass)
        traced_times = times[True]
        if traced_times and untraced:
            per_layer["trace.pipeline_s"] = statistics.median(traced_times)
            per_layer["trace.overhead_s"] = (statistics.median(traced_times)
                                             - statistics.median(untraced))
        report["per_layer"] = per_layer
        report["traced_pass_times"] = traced_times
        report["spans_file"] = write_spans(args, span_log)
    return report


def write_spans(args, span_log: list) -> str:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}.spans.json"
    fields = ["id", "name", "start", "end", "parent"]
    path.write_text(json.dumps({"fields": fields, "passes": span_log}))
    return str(path.relative_to(ROOT))


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def emit(args, report: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(report, indent=1) + "\n")

    also = report["also"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"passes {report['attempted']}  timed {also['passes_timed']}")
    for key, value in report["end_to_end"].items():
        print(f"  {key:24s} {_fmt(value)} {END_TO_END_UNITS[key]}")
    print(f"  {'pipeline_p90_s':24s} {_fmt(also['pipeline_p90_s'])} s")
    print(f"  {'pipeline_wall_s':24s} {_fmt(also['pipeline_wall_s'])} s")
    print(f"  {'setup_wall_s':24s} {_fmt(also['setup_wall_s'])} s")
    print(f"  {'failed_ratio':24s} {_fmt(also['failed_ratio'])} "
          f"({report['failed']}/{report['attempted']} passes)")
    print(f"  {'dH_max':24s} {_fmt(also['dH_max'])} energy")
    if args.trace:
        import layers

        for key, value in report["per_layer"].items():
            print(f"  {key:24s} {_fmt(value)} {layers.PER_LAYER[key][0]}")
        metrics = {k: {"value": v, "unit": layers.PER_LAYER[k][0]}
                   for k, v in report["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in report["end_to_end"].items()}
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "peierls" / "__init__.py").is_file():
        print(f"no peierls sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    threads = set_blas_threads()
    if args.setup_probe:
        try:
            timing, _, _ = setup(args.workload, args.seed)
        except UnknownWorkload as exc:
            print(exc, file=sys.stderr)
            return 2
        print(json.dumps(timing))
        return 0
    load = os.getloadavg()
    try:
        report = benchmark(args, threads, load)
    except UnknownWorkload as exc:
        print(exc, file=sys.stderr)
        return 2
    emit(args, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
