#!/usr/bin/env python3
"""Perf-regression gate over bench_json.hpp records.

Usage:
    compare_bench.py --baseline BENCH_taskgraph.json \
        --current micro.json [fig3.json ...] [--max-regression 0.30]

The baseline is a committed JSON array of {benchmark, config, wall_s,
throughput} records (see bench/README.md). Records carrying "track": true
are gated:

  - the record must be present in (the union of) the current files,
    matched by (benchmark, config);
  - current.throughput must be >= baseline.throughput * (1 - max_regression)
    (throughput is items/s or a dimensionless speedup ratio — higher is
    better in both cases);
  - when the baseline record carries "floor": F, current.throughput must
    also be >= F (an absolute acceptance bound, e.g. 1.5 for the ACE
    exchange speedup).

Untracked records are trajectory data: reported, never gated. Exit status 0
when every tracked record passes, 1 otherwise.
"""

import argparse
import json
import sys


def load_records(path):
    with open(path) as f:
        data = json.load(f)
    if not isinstance(data, list):
        raise SystemExit(f"{path}: expected a JSON array of records")
    for r in data:
        if "benchmark" not in r or "config" not in r:
            raise SystemExit(f"{path}: record missing benchmark/config: {r}")
    return data


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--current", required=True, nargs="+")
    ap.add_argument("--max-regression", type=float, default=0.30,
                    help="tolerated fractional throughput drop (default 0.30)")
    args = ap.parse_args()

    baseline = load_records(args.baseline)
    current = {}
    for path in args.current:
        for r in load_records(path):
            current[(r["benchmark"], r["config"])] = r

    tracked = [r for r in baseline if r.get("track")]
    if not tracked:
        raise SystemExit(f"{args.baseline}: no tracked records — nothing to gate")

    failures = []
    width = max(len(f"{r['benchmark']}/{r['config']}") for r in tracked)
    print(f"perf gate: {len(tracked)} tracked record(s), "
          f"max regression {args.max_regression:.0%}")
    for r in tracked:
        key = (r["benchmark"], r["config"])
        name = f"{r['benchmark']}/{r['config']}"
        cur = current.get(key)
        if cur is None:
            failures.append(f"{name}: missing from current results")
            print(f"  FAIL {name:<{width}}  (missing)")
            continue
        base_thr = float(r.get("throughput", 0.0))
        cur_thr = float(cur.get("throughput", 0.0))
        limit = base_thr * (1.0 - args.max_regression)
        floor = float(r["floor"]) if "floor" in r else None
        ok = cur_thr >= limit and (floor is None or cur_thr >= floor)
        ratio = cur_thr / base_thr if base_thr > 0 else float("nan")
        floor_s = f", floor {floor:g}" if floor is not None else ""
        print(f"  {'ok  ' if ok else 'FAIL'} {name:<{width}}  "
              f"baseline {base_thr:.4g}  current {cur_thr:.4g}  "
              f"({ratio:.2f}x of baseline{floor_s})")
        if not ok:
            if cur_thr < limit:
                failures.append(
                    f"{name}: throughput {cur_thr:.4g} < {limit:.4g} "
                    f"(baseline {base_thr:.4g} - {args.max_regression:.0%})")
            if floor is not None and cur_thr < floor:
                failures.append(f"{name}: throughput {cur_thr:.4g} < floor {floor:g}")

    if failures:
        print(f"\n{len(failures)} perf-gate failure(s):", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
