"""Tests for the benchmark itself: python -m pytest bench"""
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

import spans
from worker import PER_TRIAL, TRACE_TARGETS, import_spinlogic
from workloads import WORKLOADS, SweepWorkload, check_verify, load_reference, reference_entry, run_cli

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def spinlogic():
    return import_spinlogic()


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_per_trial_call_counts_are_exact(spinlogic):
    recorder = spans.SpanRecorder()
    targets = [(getattr(spinlogic, module), attr) for module, attr in TRACE_TARGETS]
    originals = [getattr(module, attr) for module, attr in targets]
    with recorder.patched(targets):
        spinlogic.noise.sweep([1e-3, 2e-3], n_runs=5, seed=0, n_workers=1)
    assert [getattr(module, attr) for module, attr in targets] == originals
    trials = 10
    counts = recorder.calls_under("noise.sweep")
    assert {name: counts[name] / trials for name in PER_TRIAL} == {
        "chain.apply_bond_pulse": 30, "gates.simulate": 2, "noise.perturb": 2,
    }
    assert recorder.summary()["noise.sweep"][1] == 1


def test_self_time_is_duration_minus_child_coverage(monkeypatch):
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 10.0])
    monkeypatch.setattr(spans.time, "perf_counter", lambda: next(ticks))
    recorder = spans.SpanRecorder()
    inner = recorder.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    recorder.wrap("outer", body)()
    assert recorder.summary() == {"inner": (3.0, 2), "outer": (7.0, 1)}
    assert recorder.calls_under("outer") == {"inner": 2, "outer": 0}


def test_patched_attributes_are_restored_after_an_error(spinlogic):
    original = spinlogic.chain.apply_bond_pulse
    with pytest.raises(RuntimeError):
        with spans.SpanRecorder().patched([(spinlogic.chain, "apply_bond_pulse")]):
            assert spinlogic.chain.apply_bond_pulse is not original
            raise RuntimeError
    assert spinlogic.chain.apply_bond_pulse is original


def run_pass(workload, spinlogic, reference):
    check = workload.checker(spinlogic, reference)
    results = [check(index, point) for index, point in enumerate(workload.one_pass(spinlogic, 1))]
    return sum(r[0] for r in results), sum(r[1] for r in results), [m for r in results for m in r[2]]


def test_wrong_reference_counts_as_failed_operations(spinlogic):
    workload = SweepWorkload("small", (1e-3, 2e-3, 4e-3, 8e-3), 20, "common", "independent", True, 75.0)
    reference = reference_entry(spinlogic.noise, workload.one_pass(spinlogic, 1), True)
    assert run_pass(workload, spinlogic, reference)[:2] == (6, 0)
    mean_p, stderr_p, mean_q, stderr_q = reference["points"][1]
    reference["points"][1] = [mean_p + 10 * stderr_p, stderr_p, mean_q, stderr_q]
    amplitude, exponent = reference["fits"]["Q"]
    reference["fits"]["Q"] = [amplitude, exponent + 0.1]
    attempted, failed, messages = run_pass(workload, spinlogic, reference)
    assert (attempted, failed) == (6, 2)
    failures = [m for m in messages if m.startswith("FAIL")]
    assert "mean_P" in failures[0] and "fit Q" in failures[1]


def test_failing_verify_check_counts_as_failed_operation(spinlogic):
    assert check_verify(*run_cli(spinlogic, ["verify"]))[:2] == (13, 0)
    attempted, failed, _ = check_verify(*run_cli(spinlogic, ["verify", "--corrupt-t2", "0.7"]))
    assert attempted == 13 and failed >= 1


def test_release_sweep_matches_its_reference(spinlogic):
    workload = WORKLOADS["sweep-default"]
    attempted, failed, messages = run_pass(workload, spinlogic, load_reference(workload.name, 1))
    assert (attempted, failed) == (10, 0), messages


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    proc = run_bench("--workload", "verify", "--seed", "4", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 13
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    if trace == "1":
        assert result["metrics"]["trace.chain.apply_bond_pulse.calls_per_trial"]["value"] == 30


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "sweep-default", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
