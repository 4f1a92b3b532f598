#!/usr/bin/env python3
"""Checks that the exact counts repeat bit-for-bit across two runs of one seed.

    python3 perfbench/check_exact.py --workload <name> --seed <n>

Runs the traced workload twice with the same seed and compares every
per-layer metric that metrics.EXACT marks exact. The counts come from the
first segment and the first set-up, which every run has whatever its
length, so both runs use a one-second run length. Exits non-zero on any
difference. The served workload has no exact counts (no public counter
reaches the Simulation each served job owns), so only the PT-CN workloads
are accepted.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402


def traced_run(workload, seed):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])["metrics"]


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("ptcn-direct-2rank", "ptcn-acemts-serial"))
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args()
    first = traced_run(args.workload, args.seed)
    second = traced_run(args.workload, args.seed)
    bad = 0
    for name in metrics.EXACT:
        a, b = first[name]["value"], second[name]["value"]
        same = a == b
        bad += not same
        print(f"{'ok  ' if same else 'DIFF'} {name:<26} {a!r} {b!r}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
