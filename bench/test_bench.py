"""Tests of the benchmark itself.  Run from the repository root with
``python -m pytest bench``."""

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_named_metric(workload):
    plain = run.measure(workload, seed=3, seconds=0, trace=False, min_ops=1)
    assert plain.correct, plain.report
    assert set(plain.metrics) == {m["name"] for m in SPEC["end_to_end"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    # The traced pass reruns the same inputs and must leave outputs byte-identical.
    traced = run.measure(workload, seed=3, seconds=0, trace=True, min_ops=1)
    assert traced.correct, traced.report
    assert set(traced.metrics) == {m["name"] for m in SPEC["per_layer"]}
    for result in (plain, traced):
        for name, metric in result.metrics.items():
            assert metric["unit"] == units[name]
            assert f"# {name} = " in "\n".join(f"# {line}" for line in result.report)


def test_tracer_restores_bindings_and_reports_absent_names():
    original = run.tensor_ops.pinv
    tracer = run.Tracer([("tensor_ops", ("pinv", "no_such_kernel"))])
    with tracer:
        assert run.sensing_als.pinv is not original
        run.sensing_als.pinv(run.np.eye(2))
    assert run.sensing_als.pinv is original
    assert run.tensor_ops.pinv is original
    assert tracer.absent == ["tensor_ops.no_such_kernel"]
    assert tracer.spans["tensor_ops.pinv"].calls == 1
    assert tracer.pinv_elems == 4


def test_after_call_hook_time_is_kept_out_of_spans():
    tracer = run.Tracer([("sensing_als", ("estimate_rx_steering",)), ("tensor_ops", ("pinv",))])
    tracer.after_call = ("tensor_ops.pinv", lambda elapsed: run.time.sleep(0.2))
    with tracer:
        run.sensing_als.estimate_rx_steering(run.np.eye(2), run.np.eye(2))
    # estimate_rx_steering calls pinv once; the hook's 0.2 s is in neither span.
    assert tracer.spans["tensor_ops.pinv"].calls == 1
    assert tracer.spans["sensing_als.estimate_rx_steering"].total < 0.1


def test_failed_output_check_marks_result_incorrect(monkeypatch):
    fit = run.sensing_als.als_fit
    monkeypatch.setattr(run.sensing_als, "als_fit", lambda *a, **k: replace(fit(*a, **k), nmse_trace=[1.0]))
    result = run.measure("sense_frame", seed=3, seconds=0, trace=False, min_ops=1)
    assert not result.correct
    assert any("noiseless sensing spot frame" in line for line in result.report)


def test_fails_without_result_when_sources_are_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / run.BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "sense_frame", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_sweep_that_bypasses_run_trial_is_incorrect(monkeypatch):
    # A sweep that stops calling harness.run_trial (say, a batched path)
    # leaves the trial clock without timings: the run must fail, not read 0.
    run_trial, run_sweep = run.harness.run_trial, run.harness.run_sweep

    def untimed_sweep(*args, **kwargs):
        clocked = run.harness.run_trial
        run.harness.run_trial = run_trial
        try:
            return run_sweep(*args, **kwargs)
        finally:
            run.harness.run_trial = clocked

    monkeypatch.setattr(run.harness, "run_sweep", untimed_sweep)
    result = run.measure("snr_sweep", seed=3, seconds=0, trace=False, min_ops=1)
    assert not result.correct
    assert any("0 operation timings for 70 operations" in line for line in result.report)
