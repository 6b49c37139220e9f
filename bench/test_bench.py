"""Checks of the benchmark itself, at a small pool size.

    python3 -m pytest -q bench/test_bench.py

Two traced passes on one seed must give identical work counts, a traced and
an untraced pass must give identical verdicts, times must be scaled by the
reference timings nearest them, the metric names must match BENCHMARK.json, a wrong verdict must fail the run, and the benchmark must
refuse ``python -O`` and a checkout without centrum's sources.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
from speed import Speedometer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SCALE = 0.05
TOP_LEVEL = {
    "grid": "cospanbicat.beta_cell.calls",
    "tensor": "bimodule.tensor_over.calls",
    "center-gfp": "fullcenter.check_theorem58_hypotheses.calls",
    "cli": "cli.main.calls",
}


def _pass(workload, traced):
    pool = run.set_up(workload, 3, SCALE)
    trace = tracer.Tracer() if traced else None
    if trace:
        trace.install()
    try:
        _, _, outcomes, failures = run.time_pool(pool, Speedometer(), trace,
                                                 deadline=float("inf"))
    finally:
        if trace:
            trace.uninstall()
    assert failures == []
    return outcomes, trace.metrics(0.0) if trace else None


def _counts(metrics):
    return {k: v for k, v in metrics.items()
            if not k.endswith(".self_s") and not k.startswith("bench.")}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_counts_repeat_and_verdicts_match_untraced(workload):
    plain, _ = _pass(workload, traced=False)
    first, m1 = _pass(workload, traced=True)
    second, m2 = _pass(workload, traced=True)
    assert first == plain == second
    assert _counts(m1) == _counts(m2)
    assert m1[TOP_LEVEL[workload]] > 0
    assert m1["exactla.rref.calls"] > 0


def test_tracer_restores_the_library():
    C = run.import_centrum()
    before = (C.exactla.Matrix.__matmul__, C.bimodule.kernel,
              C.cospanbicat.beta_cell)
    trace = tracer.Tracer()
    trace.install()
    assert C.bimodule.kernel is not before[1]
    trace.uninstall()
    assert (C.exactla.Matrix.__matmul__, C.bimodule.kernel,
            C.cospanbicat.beta_cell) == before


def test_times_are_scaled_by_the_nearest_reference_ticks():
    meter = Speedometer()
    meter.at = [float(i) for i in range(20)]
    meter.took = [speed.REFERENCE_S] * 10 + [2 * speed.REFERENCE_S] * 10
    assert meter.factor(2.0, 3.0) == pytest.approx(1.0)
    assert meter.factor(15.0, 17.0) == pytest.approx(0.5)
    assert meter.factor(-5.0, -3.0) == pytest.approx(1.0)
    assert meter.factor(25.0, 35.0) == pytest.approx(0.5)
    assert meter.factor(9.0, 10.0) == pytest.approx(1 / 1.5)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        tracer.metric_names()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    args = argparse.Namespace(workload="cli", seed=3, seconds=SCALE * 20)
    _, _, _, metrics, meta = run.run_end_to_end(args)
    assert len(meta["setups_s"]) == run.SETUPS
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(name, unit) for name, (_, unit) in metrics.items()]


def test_wrong_verdict_fails_the_run(monkeypatch, capsys):
    build = WORKLOADS["cli"]

    def broken(C, rng, scale):
        pool = build(C, rng, scale)
        pool.segments[0][0].expected = "not the known answer"
        return pool

    monkeypatch.setitem(run.WORKLOADS, "cli", broken)
    code = run.main(["--workload", "cli", "--seed", "3", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert (result["correct"], result["failed"]) == (False, 1)


def _bench(args, cwd, *flags):
    return subprocess.run(
        [sys.executable, *flags, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def test_refuses_optimized_python():
    proc = _bench(["--workload", "cli", "--seed", "1", "--seconds", "1"],
                  ROOT, "-O")
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "-O" in proc.stderr


def test_fails_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench(["--workload", "grid", "--seed", "1", "--seconds", "1"],
                  str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
