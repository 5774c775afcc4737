#!/usr/bin/env python3
"""spinlogic benchmark: one workload, measured in fresh single-threaded processes.

    python3 bench/run.py --workload sweep-default --seed 1 --seconds 32 --trace 0

--trace 0 prints the end-to-end metrics: the workload's calls are timed in one
process, and set-up time is the median over SETUP_PROBES further processes
that each import spinlogic and make the workload's first call. Times are
scaled to a reference machine speed by a calibration kernel timed next to
them (speed.py); the raw wall-clock values are printed on a note line.
--trace 1 prints the per-layer metrics: layer timings, span self times and
counts from a traced run, and the cold simulate from COLD_PROBES processes.

Metric names and units come from BENCHMARK.json; the run fails if the
computed set differs from the declared one. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import statistics
import subprocess
import sys
import time

import speed
from workloads import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

SETUP_PROBES = 7
COLD_PROBES = 5
# fewer calls than this beyond the tail percentile make call_tail_s a thin estimate
MIN_BEYOND = 10
CHILD_TIMEOUT_S = 150
# single-threaded BLAS: the matrices are 15x15, and idle BLAS threads only add noise
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def run_child(args: list[str]) -> dict:
    env = dict(os.environ, **CHILD_ENV)
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"worker {' '.join(args)} timed out after {CHILD_TIMEOUT_S} s") from err
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(workload: str, seed: int, seconds: int) -> tuple[dict, dict, list[str]]:
    """Metrics at the reference speed of speed.py; the raw wall-clock values go in a note."""
    child = ["--workload", workload, "--seed", str(seed)]
    main = run_child(["--mode", "run", "--seconds", str(seconds), *child])
    setups, raw_setups = [], []
    for _ in range(SETUP_PROBES):
        kernel_before = speed.kernel_s()
        t0 = time.monotonic()
        raw_setups.append(run_child(["--mode", "setup", "--t0", repr(t0), *child])["setup_s"])
        setups.append(raw_setups[-1] * speed.REFERENCE_S / ((kernel_before + speed.kernel_s()) / 2))

    percentile = WORKLOADS[workload].tail_percentile
    attempted, failed = main["attempted"], main["failed"]
    items = main["items_per_call"]
    metrics, raw = {}, {}
    for out, times, setup_times in ((metrics, main["call_times"], setups),
                                    (raw, main["raw_call_times"], raw_setups)):
        out["call_s"] = statistics.median(times)
        out["call_tail_s"], beyond = tail(times, percentile)
        out["items_per_s"] = items * len(times) / sum(times)
        out["setup_s"] = statistics.median(setup_times)
    metrics["peak_rss_mb"] = main["peak_rss_mb"]
    metrics["ok_ratio"] = (attempted - failed) / attempted
    raw["kernel_s"] = statistics.median(main["kernel_times"])
    notes = [
        f"machine: {json.dumps(main['machine'])}",
        f"calls: {len(main['call_times'])} of {items} items each; "
        f"call_tail_s is p{percentile:g} ({beyond} calls beyond it)",
        f"raw wall-clock values: {json.dumps(raw)}",
    ]
    if beyond < MIN_BEYOND:
        notes.append(f"warning: only {beyond} calls lie beyond p{percentile:g}, fewer than {MIN_BEYOND}; "
                     f"call_tail_s rests on too few samples")
    return main, metrics, notes


def per_layer(workload: str, seed: int, seconds: int) -> tuple[dict, dict, list[str]]:
    main = run_child(["--mode", "trace", "--seconds", str(seconds), "--workload", workload, "--seed", str(seed)])
    colds = [run_child(["--mode", "cold", "--workload", workload, "--seed", str(seed)])["swap_cold_us"]
             for _ in range(COLD_PROBES)]
    metrics = dict(main["metrics"])
    metrics["gates.simulate.swap_cold_us"] = statistics.median(colds)
    notes = [f"machine: {json.dumps(main['machine'])}", f"trace: {json.dumps(main['trace_info'])}"]
    return main, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if not (ROOT / "src" / "spinlogic" / "__init__.py").is_file():
        print(f"no spinlogic sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            main_result, metrics, notes = per_layer(args.workload, args.seed, args.seconds)
        else:
            main_result, metrics, notes = end_to_end(args.workload, args.seed, args.seconds)
    except BenchError as err:
        print(str(err), file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(f"metrics differ from BENCHMARK.json: computed only {sorted(set(metrics) - set(units))}, "
              f"declared only {sorted(set(units) - set(metrics))}", file=sys.stderr)
        return 1

    for note in notes:
        print(note)
    for message in main_result["messages"]:
        print(f"check: {message}")
    for name, value in metrics.items():
        print(f"{name:<48} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": main_result["failed"] == 0,
        "attempted": main_result["attempted"],
        "failed": main_result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
