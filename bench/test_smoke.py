"""Smoke test of the benchmark at reduced size.

    python3 -m pytest -q bench/test_smoke.py

Runs one traced pass of each workload, requires every output check to pass
(failed_ratio == 0) and the traced span names to cover every measured
module.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

import layers  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """One traced pass per workload: name -> (failures, metrics, spans)."""
    import peierls.cli

    runs = {}
    for name, full in workloads.WORKLOADS.items():
        workload = full.smaller()
        inp = workload.inputs(seed=0)[0]
        work = tmp_path_factory.mktemp(name)
        cfg = work / "config.json"
        cfg.write_text(json.dumps(workload.config(inp)))
        out = work / "out"
        out.mkdir()
        tr = tracer.Tracer()
        with tr.installed(), tr.span("pass"):
            error = run.run_pass(peierls.cli.main, workload.commands, cfg,
                                 out)
        failures = [] if error is None else [error]
        if error is None:
            try:
                workloads.check(workload, out, inp)
            except workloads.CheckFailed as exc:
                failures.append(str(exc))
        metrics = layers.pass_metrics(tr.spans, tr.observed, tr.counters)
        runs[name] = (failures, metrics, tr.spans)
    assert not hasattr(peierls.cli.main, "__wrapped__")  # tracer restored
    return runs


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_its_checks(smoke_runs, name):
    failures, metrics, _ = smoke_runs[name]
    assert failures == []  # failed_ratio == 0
    assert set(layers.run_metrics([metrics])) == set(layers.PER_LAYER)


def test_spans_cover_measured_modules(smoke_runs):
    traced = {span[1].split(".")[0]
              for _, _, spans in smoke_runs.values() for span in spans[1:]}
    assert set(tracer.MEASURED) <= traced
