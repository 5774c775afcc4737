#!/usr/bin/env python3
"""Run every workload over ten seeds, twice, and record medians and spreads.

    python3 bench/baseline.py --label "<commit>" --out bench/baseline.json

Each run measures for BENCHMARK.json's run_seconds. For each of SETS sets and
each workload: one --trace 0 run per seed in SEEDS, then one --trace 1 run.
Per end-to-end metric a set records the median, the quartiles from
statistics.quantiles(values, n=4), and the spread (q3 - q1) / median.
Per-layer metrics come from the single traced run. The raw wall-clock values
each run prints are kept per seed. "agreement" holds, per metric, the later
set's median over the first set's, minus one.
"""
from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

from workloads import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
SEEDS = range(1, 11)
SETS = 2


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The run's JSON result and its JSON note lines ("machine", "raw wall-clock values", ...)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed their checks:\n{proc.stdout}")
    notes = {}
    for line in lines[:-1]:
        key, sep, value = line.partition(": ")
        if sep and value.startswith("{"):
            notes[key] = json.loads(value)
    return result, notes


def measure_set(number: int, seconds: int) -> tuple[dict, dict]:
    """One set: {workload: end-to-end summary, raw values, per-layer metrics}, and the machine."""
    workloads = {}
    for workload in WORKLOADS:
        values: dict[str, list[float]] = {}
        units = {}
        raw = []
        for seed in SEEDS:
            result, notes = bench(workload, seed, seconds, 0)
            machine = notes["machine"]
            raw.append(notes["raw wall-clock values"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        end_to_end = {}
        for name, series in values.items():
            q1, _, q3 = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            end_to_end[name] = {"median": median, "q1": q1, "q3": q3,
                                "spread": (q3 - q1) / median, "unit": units[name], "values": series}
            print(f"set {number} {workload:14} {name:14} median {median:.6g} {units[name]}  "
                  f"spread {(q3 - q1) / median:.4f}", flush=True)
        traced, _ = bench(workload, SEEDS[0], seconds, 1)
        workloads[workload] = {
            "end_to_end": end_to_end,
            "raw_wall_clock": raw,
            "per_layer": {name: [m["value"], m["unit"]] for name, m in traced["metrics"].items()},
        }
    return workloads, machine


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True, help="what was measured, e.g. a commit id")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    record = {"label": args.label, "seconds": seconds, "seeds": list(SEEDS), "sets": []}
    for number in range(1, SETS + 1):
        workloads, record["machine"] = measure_set(number, seconds)
        record["sets"].append(workloads)
    first = record["sets"][0]
    record["agreement"] = {
        workload: {name: [s[workload]["end_to_end"][name]["median"] / metric["median"] - 1
                          for s in record["sets"][1:]]
                   for name, metric in first[workload]["end_to_end"].items()}
        for workload in first
    }
    pathlib.Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
