#!/usr/bin/env python3
"""Summarize result files of bench/run.py into one JSON document.

    python3 bench/summarize.py OUT.json [RESULT.json ...]

Without result files it reads every ``bench/results/*-trace?.json``.  Per
workload and metric it gives the values of all runs with their median,
quartiles (``statistics.quantiles(values, n=4)``) and spread, the distance
between the quartiles as a share of the median.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / "results"


def describe(values: list) -> dict:
    values = [v for v in values if v is not None]
    if not values:
        return {"values": []}
    med = statistics.median(values)
    out = {"median": med, "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
    return out


def summarize(paths: list) -> dict:
    runs = [json.loads(Path(p).read_text()) for p in paths]
    out = {"machine": None, "workloads": {}}
    for run in sorted(runs, key=lambda r: (r["workload"], r["trace"],
                                           r["machine"]["seed"])):
        machine = dict(run["machine"])
        machine.pop("seed")
        machine.pop("loadavg_start")
        out["machine"] = out["machine"] or machine
        entry = out["workloads"].setdefault(run["workload"], {
            "sizes": run["sizes"], "seconds": run["seconds"],
            "untraced": [], "traced": []})
        entry["traced" if run["trace"] else "untraced"].append(run)
    for name, entry in out["workloads"].items():
        untraced, traced = entry.pop("untraced"), entry.pop("traced")
        entry["seeds"] = [r["machine"]["seed"] for r in untraced]
        entry["loadavg_start"] = [r["machine"]["loadavg_start"][0]
                                  for r in untraced + traced]
        entry["attempted"] = sum(r["attempted"] for r in untraced)
        entry["failed"] = sum(r["failed"] for r in untraced)
        entry["end_to_end"] = {
            m: describe([r["end_to_end"][m] for r in untraced])
            for m in (untraced[0]["end_to_end"] if untraced else {})}
        entry["also"] = {
            m: describe([r["also"][m] for r in untraced])
            for m in (untraced[0]["also"] if untraced else {})}
        if traced:
            entry["traced_seeds"] = [r["machine"]["seed"] for r in traced]
            entry["per_layer"] = {
                m: describe([r["per_layer"][m] for r in traced])
                for m in traced[0]["per_layer"]}
    return out


def main(argv) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    paths = argv[1:] or sorted(RESULTS.glob("*-trace[01].json"))
    if not paths:
        print("no result files", file=sys.stderr)
        return 2
    Path(argv[0]).write_text(json.dumps(summarize(paths), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
