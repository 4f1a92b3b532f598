#!/usr/bin/env python3
"""End-to-end PT-CN benchmark: one command, three workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the library and the ptbench program
from source (CMake, Release) under .bench_build/perfbench, runs the
workload, checks its outputs, prints every metric by name with its unit and
sample count, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones, and the spans go to .bench_build/perfbench/traces/. The
exit code is 0 only when every correctness check passed. See README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402

WORKLOADS = ("ptcn-direct-2rank", "ptcn-acemts-serial", "serve-mixed-priority")
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "simulation.hpp")):
        raise SystemExit("perfbench: library sources not found next to perfbench/")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.isfile(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "ptbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "ptbench")


def run_ptbench(exe, args):
    rundir = os.path.join(BUILD, "run")
    tracedir = os.path.join(BUILD, "traces")
    os.makedirs(rundir, exist_ok=True)
    os.makedirs(tracedir, exist_ok=True)
    raw_path = os.path.join(rundir, f"{args.workload}-{os.getpid()}.raw.json")
    spans = os.path.join(tracedir, f"{args.workload}-seed{args.seed}.json")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--raw", raw_path, "--spans", spans, "--workdir", rundir]
    subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    with open(raw_path) as f:
        raw = json.load(f)
    os.remove(raw_path)
    return raw, spans


def report(raw, trace, spans):
    """Prints the human-readable report; returns (correct, metrics dict)."""
    host = raw["host"]
    print(f"workload {raw['workload']}  seed {raw['seed']}  trace {int(trace)}")
    print(f"host: nproc {host['nproc']}  host.calib_s {host['calib_s']:.4f}  "
          f"host.steal_share {host['steal_share']:.4f}  "
          f"layout {host['ranks']} ranks x engine width {host['width']}")

    failed_checks = [c for c in raw["checks"] if not c["ok"]]
    for c in raw["checks"]:
        status = "ok  " if c["ok"] else "FAIL"
        tol = f"  (value {c['value']:.3e}, tol {c['tol']:.3e})" if c["tol"] else ""
        print(f"check {status} {c['name']}{tol}")

    served = "jobs" in raw
    if served:
        layer, notes = metrics.serve_layers(raw)
        end_to_end = metrics.serve_end_to_end
    else:
        layer, notes = metrics.td_layers(raw)
        end_to_end = metrics.td_end_to_end
        mismatches = metrics.exact_repeat_mismatches(raw)
        for m in mismatches:
            print(f"check FAIL exact count repeat: {m}")
        if mismatches:
            failed_checks.append(mismatches)
    e2e = end_to_end(raw)
    e2e["peak_rss_mb"] = (metrics.kib_to_mb(raw["rss_kb"]["hwm"]), "MB", 1)
    layer.update(metrics.host_layers(raw))

    ratio, base = metrics.fail_ratio(raw["failed"], raw["attempted"])
    print(f"fail_ratio {ratio:.4f} ({base} {'jobs' if served else 'steps'})")
    print("end-to-end:")
    for name, (value, unit, n) in e2e.items():
        print(f"  {name:<20} {value:14.6g} {unit:<6} n={n}")

    if trace:
        per_layer = metrics.declared("per_layer")
        print("per-layer:")
        for name, unit in per_layer.items():
            value = layer.get(name, 0.0)
            tag = " exact" if name in metrics.EXACT else ""
            print(f"  {name:<26} {value:14.6g} {unit}{tag}")
        for what, why in notes.items():
            print(f"  absent here: {what}: {why}")
        print(f"spans: {spans}")
        out = {name: {"value": layer.get(name, 0.0), "unit": unit}
               for name, unit in per_layer.items()}
    else:
        out = {name: {"value": e2e[name][0], "unit": unit}
               for name, unit in metrics.declared("end_to_end").items()}
    return not failed_checks, out


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    os.chdir(ROOT)  # relative paths keep the unix socket path short
    exe = build()
    raw, spans = run_ptbench(exe, args)
    correct, out = report(raw, args.trace, spans)
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
