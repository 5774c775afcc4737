"""One fresh benchmark process: imports spinlogic from the checkout's src/ and measures.

Modes (run.py starts each in its own interpreter and reads the JSON object
printed as the last line):
  run    warm up, then time calls, with calibration, until --seconds would be exceeded
  trace  per-layer timings, a traced section, then paired traced/untraced slices
  setup  import plus the workload's first call; reports the clock at its end
  cold   the first swap simulate in a new process
"""
from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import sys
import time

import speed

ROOT = pathlib.Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"

# (module, attribute) pairs whose calls the traced run records as spans
TRACE_TARGETS = (
    ("chain", "apply_bond_pulse"),
    ("gates", "simulate"),
    ("noise", "perturb"),
    ("noise", "sweep"),
)
PER_TRIAL = ("chain.apply_bond_pulse", "gates.simulate", "noise.perturb")
# shares of --seconds that a traced run spends on layer timings and on the overhead pairs
LAYER_SHARE, OVERHEAD_SHARE = 0.5, 0.125
# a small sweep traced on every workload, so per-trial counts exist on verify too
PROBE_EPS, PROBE_RUNS = 1e-3, 20
MAX_MESSAGES = 20
# run mode: calls are timed in stretches this long, each followed by a calibration kernel
CALIBRATION_INTERVAL_S = 0.1


def import_spinlogic():
    sys.path.insert(0, str(ROOT / "src"))
    import spinlogic
    import spinlogic.cli  # noqa: F401  (the package does not import its front end)

    return spinlogic


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, result) -> None:
        attempted, failed, messages = result
        self.attempted += attempted
        self.failed += failed
        for message in messages:
            if message not in self.messages and len(self.messages) < MAX_MESSAGES:
                self.messages.append(message)


def mode_run(workload, spinlogic, seed, seconds, reference) -> dict:
    """Time calls in stretches of CALIBRATION_INTERVAL_S, each between two calibration kernels."""
    tally = Tally()
    check = workload.checker(spinlogic, reference)
    workload.first_call(spinlogic, seed)
    raw, scaled, kernels = [], [], [speed.kernel_s()]
    index = 0
    start = time.perf_counter()
    while True:
        batch = []
        batch_start = time.perf_counter()
        while not batch or time.perf_counter() - batch_start < CALIBRATION_INTERVAL_S:
            call_start = time.perf_counter()
            output = workload.call(spinlogic, seed, index)
            batch.append(time.perf_counter() - call_start)
            tally.add(check(index, output))
            index += 1
        batch_s = time.perf_counter() - batch_start
        kernels.append(speed.kernel_s())
        factor = speed.REFERENCE_S / ((kernels[-2] + kernels[-1]) / 2)
        raw += batch
        scaled += [t * factor for t in batch]
        # stop before a further stretch would run past the measuring time
        if time.perf_counter() - start + batch_s > seconds:
            break
    return {
        "call_times": scaled,
        "raw_call_times": raw,
        "kernel_times": kernels,
        "items_per_call": workload.items_per_call,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "messages": tally.messages,
        "machine": machine(),
    }


def mode_trace(workload, spinlogic, seed, seconds, reference) -> dict:
    import layers
    from spans import SpanRecorder
    from workloads import check_names, run_cli

    tally = Tally()
    workload.first_call(spinlogic, seed)
    OUT_DIR.mkdir(exist_ok=True)
    names = check_names(run_cli(spinlogic, ["verify"])[1])
    metrics = layers.layer_timings(spinlogic, names, OUT_DIR / "roundtrip.csv", LAYER_SHARE * seconds)

    targets = [(getattr(spinlogic, module), attr) for module, attr in TRACE_TARGETS]
    recorder = SpanRecorder()
    check = workload.checker(spinlogic, reference)
    with recorder.patched(targets):
        for index in range(workload.traced_calls):
            tally.add(check(index, workload.call(spinlogic, seed, index)))
        spinlogic.noise.sweep([PROBE_EPS], n_runs=PROBE_RUNS, seed=seed, n_workers=1)
    trials = PROBE_RUNS + workload.traced_calls * workload.trials_per_call

    unit, units_per_call = workload.overhead_unit(spinlogic, seed)
    scratch = SpanRecorder()

    def traced_unit():
        with scratch.patched(targets):
            unit()

    overhead_s = layers.paired_difference_s(traced_unit, unit, OVERHEAD_SHARE * seconds) * units_per_call

    summary = recorder.summary()
    under_sweep = recorder.calls_under("noise.sweep")
    for module, attr in TRACE_TARGETS:
        name = f"{module}.{attr}"
        self_s, calls = summary[name]
        metrics[f"trace.{name}.self_s"] = self_s
        metrics[f"trace.{name}.calls"] = calls
    for name in PER_TRIAL:
        metrics[f"trace.{name}.calls_per_trial"] = under_sweep[name] / trials
    metrics["trace.overhead_s"] = overhead_s
    spans_path = OUT_DIR / f"spans-{workload.name}.npz"
    recorder.write(spans_path)
    return {
        "metrics": metrics,
        "trace_info": {
            "traced_calls": workload.traced_calls, "probe_trials": PROBE_RUNS,
            "traced_trials": trials, "spans": len(recorder), "spans_file": str(spans_path.relative_to(ROOT)),
        },
        "attempted": tally.attempted,
        "failed": tally.failed,
        "messages": tally.messages,
        "machine": machine(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", required=True, choices=["run", "trace", "setup", "cold"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="measuring time (run and trace modes)")
    parser.add_argument("--t0", type=float, help="parent's monotonic clock when it started this process")
    args = parser.parse_args()

    spinlogic = import_spinlogic()
    if args.mode == "cold":
        import layers

        result = {"swap_cold_us": layers.cold_simulate_us(spinlogic)}
        print(json.dumps(result))
        return 0

    from workloads import WORKLOADS, load_reference, program_seed

    workload = WORKLOADS[args.workload]
    seed = program_seed(args.seed)
    if args.mode == "setup":
        workload.first_call(spinlogic, seed)
        result = {"setup_s": time.monotonic() - args.t0}
    elif args.mode == "run":
        result = mode_run(workload, spinlogic, seed, args.seconds, load_reference(workload.name, seed))
    else:
        result = mode_trace(workload, spinlogic, seed, args.seconds, load_reference(workload.name, seed))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
