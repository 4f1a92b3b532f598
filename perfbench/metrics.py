"""Metric arithmetic of the PT-CN benchmark.

ptbench (the C++ program) writes raw samples; this module turns them into
the reported metrics. Everything here is plain arithmetic so that
test_metrics.py can pin it without running the physics. BENCHMARK.json
declares every metric with its unit; README.md defines each one and names
the layer it belongs to.
"""

import json
import math
import os

# A percentile is reported only with at least this many samples beyond it
# (so p90 needs >= 100 samples).
MIN_BEYOND = 10

# Counts that repeat bit-for-bit for a given seed (one segment of the fixed
# PT-CN trajectory). A later change may rest a claim on these alone.
EXACT = (
    "scf.iterations",
    "scf.outer_iterations",
    "td.scf_iters",
    "td.fock_applies",
    "td.exchange_refreshes",
    "ham.fock.pair_solves",
    "ham.fock.broadcasts",
    "ham.ace.builds",
    "parallel.bcast.calls",
    "parallel.bcast.bytes",
    "parallel.alltoallv.calls",
    "parallel.alltoallv.bytes",
    "parallel.allreduce.calls",
    "parallel.allreduce.bytes",
)

# TimerRegistry phase of PtCnPropagator::step -> per-layer metric.
PHASES = {
    "hpsi_fock": "ham.hpsi_fock_s",
    "hpsi_local": "ham.hpsi_local_s",
    "density": "ham.density_s",
    "others": "ham.update_density_s",
    "residual": "td.residual_s",
    "anderson": "td.anderson_s",
    "ortho": "td.ortho_s",
}

COMM_OPS = (("Bcast", "bcast"), ("Alltoallv", "alltoallv"), ("Allreduce", "allreduce"))

# BENCHMARK.json (at the repository root) declares the metrics: the
# end-to-end ones every workload reports and the per-layer ones a traced run
# reports, each with its unit. It is the only list of them.
SPEC_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "BENCHMARK.json")


def declared(kind):
    """Metric name -> unit of one BENCHMARK.json list ("end_to_end" or
    "per_layer"), in declaration order."""
    with open(SPEC_PATH) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


class TooFewSamples(ValueError):
    pass


def samples_beyond(n, q):
    """Samples strictly above the nearest-rank q-quantile of n samples."""
    return n - math.ceil(q * n)


def quantile(samples, q):
    """Nearest-rank q-quantile (the ceil(q*n)-th smallest sample).

    Raises TooFewSamples when q > 0.5 and fewer than MIN_BEYOND samples lie
    beyond it: a tail percentile resting on a handful of samples is noise.
    """
    n = len(samples)
    if n == 0:
        raise TooFewSamples("no samples")
    if q > 0.5 and samples_beyond(n, q) < MIN_BEYOND:
        raise TooFewSamples(
            f"p{round(q * 100)} needs {MIN_BEYOND} samples beyond it; "
            f"{n} samples leave {samples_beyond(n, q)}")
    ordered = sorted(samples)
    return ordered[max(math.ceil(q * n), 1) - 1]


def median(samples):
    return quantile(samples, 0.5)


def fail_ratio(failed, attempted):
    """failed / attempted, with the base spelled out ("3/120")."""
    if attempted < 1:
        raise ValueError("fail_ratio needs at least one attempted operation")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted, f"{failed}/{attempted}"


def kib_to_mb(kib):
    """/proc/self/status reports kB meaning KiB; MB here is 2**20 bytes."""
    return kib * 1024 / 2**20


def mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def critical_rank(step):
    """The rank whose step wall is longest: it sets the step's time."""
    ranks = step["ranks"]
    return max(range(len(ranks)), key=lambda r: ranks[r]["wall_s"])


def phase_breakdown(steps):
    """Mean per-step phase seconds on each step's critical rank.

    Returns (phases, unattributed, wall): phases maps per-layer metric name
    to mean seconds per step, unattributed is the mean of wall minus the
    sum of that rank's phases, so sum(phases) + unattributed == wall.
    """
    names = sorted(PHASES.values())
    totals = {name: 0.0 for name in names}
    unattributed = 0.0
    wall = 0.0
    for step in steps:
        rank = step["ranks"][critical_rank(step)]
        covered = 0.0
        for phase, secs in rank["phases"].items():
            if phase in PHASES:
                totals[PHASES[phase]] += secs
            covered += secs
        unattributed += rank["wall_s"] - covered
        wall += rank["wall_s"]
    n = max(len(steps), 1)
    return {k: v / n for k, v in totals.items()}, unattributed / n, wall / n


def step_walls(steps):
    """Per-step wall time, max over ranks."""
    return [max(r["wall_s"] for r in s["ranks"]) for s in steps]


def exact_counts(raw, steps):
    """Exact counts per step over one segment (all of them repeat)."""
    n = len(steps)
    out = {
        "td.scf_iters": sum(s["scf_iters"] for s in steps) / n,
        "td.fock_applies": sum(s["fock_applies"] for s in steps) / n,
        "td.exchange_refreshes": sum(1 for s in steps if s["refreshed"]) / n,
        "ham.fock.pair_solves": sum(r["pair_solves"] for s in steps for r in s["ranks"]) / n,
        "ham.fock.broadcasts": sum(r["broadcasts"] for s in steps for r in s["ranks"]) / n,
        "ham.ace.builds": sum(r["ace_builds"] for s in steps for r in s["ranks"]) / n,
        "scf.iterations": raw["setup"][0]["scf_iterations"],
        "scf.outer_iterations": raw["setup"][0]["scf_outer_iterations"],
    }
    nranks = len(steps[0]["ranks"])
    for op, name in COMM_OPS:
        for idx, what in ((0, "calls"), (1, "bytes")):
            per_rank = [sum(s["ranks"][r]["comm"][op][idx] for s in steps) / n
                        for r in range(nranks)]
            out[f"parallel.{name}.{what}"] = max(per_rank)
    return out


def segments(steps):
    out = {}
    for s in steps:
        out.setdefault(s["segment"], []).append(s)
    return [out[k] for k in sorted(out)]


def per_fs(raw, sim_fs):
    """Measured-phase wall seconds and process CPU seconds per simulated fs."""
    return raw["measure_s"] / sim_fs, raw["measure_cpu_s"] / sim_fs


def td_end_to_end(raw):
    """End-to-end metrics of a PT-CN workload: name -> (value, unit, samples)."""
    steps = raw["steps"]
    walls = step_walls(steps)
    setup = raw["setup"]
    wall_fs, cpu_fs = per_fs(raw, len(steps) * raw["dt_fs"])
    return {
        "setup_s": (median([s["total_s"] for s in setup]), "s", len(setup)),
        "cpu_s_per_fs": (cpu_fs, "s/fs", len(steps)),
        "step_p50_s": (median(walls), "s", len(walls)),
        "step_p90_s": (quantile(walls, 0.9), "s", len(walls)),
        "s_per_fs": (wall_fs, "s/fs", len(steps)),
        "first_step_p50_s": (median([s["first_step_s"] for s in setup]), "s", len(setup)),
    }


def host_layers(raw):
    """Host facts, printed with every run and never used to normalize."""
    return {"host.calib_s": raw["host"]["calib_s"],
            "host.steal_share": raw["host"]["steal_share"]}


def trace_overhead(raw):
    """How much longer the traced run is than its measured phase alone: the
    spans are built and written after the loop, so that is all they add."""
    return 1.0 + raw["trace_s"] / raw["measure_s"]


def td_layers(raw):
    """Per-layer metrics of a PT-CN workload and notes on absent ones."""
    steps = raw["steps"]
    segs = segments(steps)
    setup = raw["setup"]
    nsteps = len(steps)
    layer = {
        "core.construct_s": median([s["construct_s"] for s in setup]),
        "scf.solve_s": median([s["scf_s"] for s in setup]),
    }
    layer.update(exact_counts(raw, segs[0]))
    phases, unattributed, wall = phase_breakdown(steps)
    layer.update(phases)
    layer["td.unattributed_s"] = unattributed
    layer["td.step_mean_s"] = wall
    layer["td.observables_s"] = mean(max(r["obs_s"] for r in s["ranks"]) for s in steps)
    pairs = sum(r["pair_solves"] for s in steps for r in s["ranks"])
    fock_s = sum(r["phases"].get("hpsi_fock", 0.0) for s in steps for r in s["ranks"])
    # Under ACE the pair solves happen in projector builds, outside the
    # hpsi_fock phase, so a per-pair time has no meaning there.
    layer["ham.fock.us_per_pair"] = (
        fock_s / pairs * 1e6 if pairs and not raw["config"]["ace"] else 0.0)
    nranks = len(steps[0]["ranks"])
    comm_s = [[sum(s["ranks"][r]["comm"][op][2] for op, _ in COMM_OPS) for r in range(nranks)]
              for s in steps]
    for op, name in COMM_OPS:
        layer[f"parallel.{name}.s"] = max(
            mean(s["ranks"][r]["comm"][op][2] for s in steps) for r in range(nranks))
    layer["parallel.comm_share"] = sum(max(c) for c in comm_s) / sum(step_walls(steps))
    layer["parallel.rank_skew_s"] = mean(max(c) - min(c) for c in comm_s)
    layer["exec.range_jobs"] = raw["exec"]["range_jobs"] / nsteps
    layer["exec.graph_jobs"] = raw["exec"]["graph_jobs"] / nsteps
    layer["trace.overhead"] = trace_overhead(raw)
    notes = {
        "io.*": "no checkpoint I/O outside the served workload",
        "serve.*": "no served jobs in this workload",
    }
    if raw["config"]["ace"]:
        notes["ham.fock.us_per_pair"] = "ACE: pair solves run inside projector builds"
    return layer, notes


def exact_repeat_mismatches(raw):
    """Exact counts that differ between segments of one run (should be none)."""
    segs = segments(raw["steps"])
    ref = exact_counts(raw, segs[0])
    bad = []
    for i, seg in enumerate(segs[1:], start=1):
        for name, value in exact_counts(raw, seg).items():
            if value != ref[name]:
                bad.append(f"{name}: segment {i} {value} != segment 0 {ref[name]}")
    return bad


def _served(raw):
    """Done jobs, streamed step intervals by job kind and per-step serving
    overhead (interval minus the step's own wall time)."""
    done = [j for j in raw["jobs"] if j["state"] == "done"]
    iv = {}
    overhead = []
    for j in done:
        arr, idx, walls = j["step_arrival_s"], j["step_index"], j["trace_wall_s"]
        for k in range(1, len(arr)):
            dt = arr[k] - arr[k - 1]
            iv.setdefault(j["kind"], []).append(dt)
            if idx[k] < len(walls):
                overhead.append(dt - walls[idx[k]])
    return done, iv, overhead


def kind_balanced_median(intervals):
    """Mean over job kinds of each kind's median step interval.

    The served kinds alternate, so half the intervals are laser steps and
    half absorption steps, which cost about 1.4 times as much. A pooled
    median sits on the gap between the two costs and jumps across it from
    run to run; each kind's own median does not."""
    return mean(median(v) for v in intervals.values())


def serve_end_to_end(raw):
    """End-to-end metrics of the served workload."""
    done, iv, _ = _served(raw)
    pooled = [dt for v in iv.values() for dt in v]
    setup = raw["setup"]
    wall_fs, cpu_fs = per_fs(raw, sum(j["steps"] for j in done) * raw["dt_fs"])
    first = [j["first_step_s"] for j in done]
    return {
        "setup_s": (median([s["total_s"] for s in setup]), "s", len(setup)),
        "cpu_s_per_fs": (cpu_fs, "s/fs", len(done)),
        "step_p50_s": (kind_balanced_median(iv), "s", len(pooled)),
        "step_p90_s": (quantile(pooled, 0.9), "s", len(pooled)),
        "s_per_fs": (wall_fs, "s/fs", len(done)),
        "first_step_p50_s": (median(first), "s", len(first)),
        "job_p50_s": (median([j["done_s"] for j in done]), "s", len(done)),
        "jobs_per_min": (len(done) / (raw["measure_s"] / 60.0), "1/min", len(done)),
    }


def serve_layers(raw):
    """Per-layer metrics of the served workload and notes on absent ones."""
    jobs = raw["jobs"]
    done, _, overhead = _served(raw)
    steps = max(sum(j["steps"] for j in done), 1)
    layer = {
        "serve.submit_rtt_s": median([j["submit_rtt_s"] for j in jobs]),
        "serve.step_overhead_s": median(overhead),
        "serve.evictions": float(sum(j["preemptions"] for j in jobs)),
        "serve.first_step_p50_s": median([j["first_step_s"] for j in done]),
        "serve.job_p50_s": median([j["done_s"] for j in done]),
        "serve.jobs_per_min": len(done) / (raw["measure_s"] / 60.0),
        "io.ckpt_bytes_per_step": mean(j["ckpt_bytes"] for j in done),
        "io.save_s": median(raw["io_save_s"]) if raw["io_save_s"] else 0.0,
        "io.load_s": median(raw["io_load_s"]) if raw["io_load_s"] else 0.0,
        "exec.range_jobs": raw["exec"]["range_jobs"] / steps,
        "exec.graph_jobs": raw["exec"]["graph_jobs"] / steps,
        "trace.overhead": trace_overhead(raw),
    }
    notes = {
        "core.* scf.* td.* ham.* parallel.*":
            "served jobs own their Simulation inside serve::JobEngine; "
            "no public counter or timer reaches it",
    }
    return layer, notes
