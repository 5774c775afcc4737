#!/usr/bin/env python3
"""Record the sweep reference that the benchmark checks every run against.

    python3 bench/make_reference.py

For each sweep workload and each program seed, runs one pass over the grid
and stores per point [mean_P, stderr_P, mean_Q, stderr_Q], and the release
sweep's power-law fits, in bench/reference.json. Re-record only in a change that alters the benchmark,
never in one that claims a gain: the point of the file is to hold later code
to the numbers of the commit that recorded it.
"""
from __future__ import annotations

import json
import sys

from worker import import_spinlogic
from workloads import N_PROGRAM_SEEDS, REFERENCE_PATH, WORKLOADS, SweepWorkload, reference_entry


def main() -> int:
    spinlogic = import_spinlogic()
    table = {}
    status = 0
    for workload in WORKLOADS.values():
        if not isinstance(workload, SweepWorkload):
            continue
        table[workload.name] = {}
        for seed in range(N_PROGRAM_SEEDS):
            points = workload.one_pass(spinlogic, seed)
            entry = reference_entry(spinlogic.noise, points, workload.check_fits)
            check = workload.checker(spinlogic, entry)
            results = [check(index, point) for index, point in enumerate(points)]
            attempted = sum(r[0] for r in results)
            failed = sum(r[1] for r in results)
            messages = [m for r in results for m in r[2]]
            print(f"{workload.name} seed {seed}: {attempted - failed}/{attempted} checks pass", *messages)
            status |= failed > 0
            table[workload.name][str(seed)] = entry
    REFERENCE_PATH.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {REFERENCE_PATH}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
