"""Self-tests of the benchmark's metric arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Pins the percentile rule, the unattributed-time accounting, the fail_ratio
base and the RSS units on hand-made samples; no build or physics needed.
"""

import io
import os
import sys
import unittest
from contextlib import redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics  # noqa: E402
import run  # noqa: E402


def step(wall, phases, segment=0, **counts):
    rank = {"wall_s": wall, "obs_s": 0.01, "converged": True, "phases": phases,
            "comm": {"Bcast": [2, 100, 0.01], "Alltoallv": [1, 50, 0.002],
                     "Allreduce": [3, 30, 0.001]},
            "pair_solves": counts.get("pairs", 0), "broadcasts": 0, "ace_builds": 0}
    return {"segment": segment, "refreshed": True, "scf_iters": 5,
            "fock_applies": 6, "observable": 0.0, "ranks": [rank]}


def td_raw(nsteps, mts_interval=0):
    """A PT-CN raw record with nsteps identical 0.1-s steps."""
    return {"workload": "w", "seed": 1,
            "host": {"nproc": 4, "calib_s": 0.1, "steal_share": 0.0, "ranks": 1, "width": 1},
            "checks": [], "attempted": nsteps, "failed": 0, "rss_kb": {"hwm": 2048},
            "config": {"ace": False, "mts_interval": mts_interval},
            "exec": {"range_jobs": 0, "graph_jobs": 0},
            "measure_s": 12.0, "measure_cpu_s": 21.0, "trace_s": 0.3, "dt_fs": 0.05,
            "setup": [{"total_s": t, "construct_s": 0.0, "scf_s": t, "first_step_s": t,
                       "scf_iterations": 3, "scf_outer_iterations": 1}
                      for t in (1.0, 2.0, 3.0)],
            "steps": [step(0.1, {"residual": 0.05}) for _ in range(nsteps)]}


def served_raw(njobs, steps=6):
    """A served raw record: njobs done jobs streaming a step every 0.2 s."""
    job = {"state": "done", "kind": "laser", "ecut": 6.0, "steps": steps, "submit_rtt_s": 0.001,
           "preemptions": 0, "first_step_s": 1.0, "done_s": 1.0 + 0.2 * (steps - 1),
           "ckpt_bytes": 1000, "step_arrival_s": [1.0 + 0.2 * k for k in range(steps)],
           "step_index": list(range(1, steps + 1)), "trace_wall_s": [0.0] + [0.15] * steps}
    return {"workload": "w3", "seed": 1,
            "host": {"nproc": 4, "calib_s": 0.1, "steal_share": 0.0, "ranks": 1, "width": 2},
            "checks": [], "attempted": njobs, "failed": 0, "rss_kb": {"hwm": 4096},
            "exec": {"range_jobs": 10, "graph_jobs": 20}, "measure_s": 30.0,
            "measure_cpu_s": 45.0, "trace_s": 0.3, "dt_fs": 0.05, "io_save_s": [0.01], "io_load_s": [0.02],
            "setup": [{"total_s": t} for t in (1.0, 2.0, 3.0)],
            "jobs": [dict(job) for _ in range(njobs)]}


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 101))  # 1..100
        self.assertEqual(metrics.quantile(samples, 0.5), 50)
        self.assertEqual(metrics.quantile(samples, 0.9), 90)
        self.assertEqual(metrics.quantile(list(reversed(samples)), 0.9), 90)

    def test_p90_needs_ten_samples_beyond(self):
        self.assertEqual(metrics.samples_beyond(100, 0.9), 10)
        self.assertEqual(metrics.samples_beyond(99, 0.9), 9)
        metrics.quantile([1.0] * 100, 0.9)
        with self.assertRaises(metrics.TooFewSamples) as ctx:
            metrics.quantile([1.0] * 99, 0.9)
        self.assertIn("99 samples", str(ctx.exception))

    def test_median_of_few_samples(self):
        self.assertEqual(metrics.median([3.0, 1.0, 2.0]), 2.0)
        with self.assertRaises(metrics.TooFewSamples):
            metrics.median([])

    def test_sample_count_is_printed(self):
        out = io.StringIO()
        with redirect_stdout(out):
            correct, metrics_out = run.report(td_raw(120), 0, "")
        text = out.getvalue()
        self.assertTrue(correct)
        self.assertRegex(text, r"step_p90_s\s+0\.1\s+s\s+n=120")
        self.assertRegex(text, r"setup_s\s+2\s+s\s+n=3")
        self.assertEqual(set(metrics_out), set(metrics.declared("end_to_end")))

    def test_traced_run_reports_every_layer_metric(self):
        with redirect_stdout(io.StringIO()):
            correct, metrics_out = run.report(td_raw(100), 1, "")
        self.assertTrue(correct)
        self.assertEqual(set(metrics_out), set(metrics.declared("per_layer")))
        # 0.3 s of span building and writing after a 12-s measured phase.
        self.assertAlmostEqual(metrics_out["trace.overhead"]["value"], 1.025)


class SecondsPerFs(unittest.TestCase):
    def test_ptcn_divides_the_measured_phase_by_simulated_time(self):
        # 120 steps of 0.05 fs = 6 fs in a 12-s measured phase that used
        # 21 CPU-seconds.
        e2e = metrics.td_end_to_end(td_raw(120))
        self.assertAlmostEqual(e2e["s_per_fs"][0], 12.0 / 6.0)
        self.assertAlmostEqual(e2e["cpu_s_per_fs"][0], 21.0 / 6.0)
        self.assertEqual(e2e["cpu_s_per_fs"][1:], ("s/fs", 120))

    def test_served_counts_only_completed_jobs(self):
        # 20 done jobs of 6 steps of 0.05 fs = 6 fs in 30 s, 45 CPU-seconds.
        raw = served_raw(21, steps=6)
        raw["jobs"][0]["state"] = "failed"
        e2e = metrics.serve_end_to_end(raw)
        self.assertAlmostEqual(e2e["s_per_fs"][0], 30.0 / 6.0)
        self.assertAlmostEqual(e2e["cpu_s_per_fs"][0], 45.0 / 6.0)
        self.assertEqual(e2e["cpu_s_per_fs"][1:], ("s/fs", 20))


class ServedStepP50(unittest.TestCase):
    def test_each_kind_weighs_the_same(self):
        # Laser steps at 0.1 s and 0.12 s, absorption steps at 0.3 s and
        # 0.32 s: the pooled median would be a laser or an absorption step
        # depending on one sample; each kind's median is stable.
        iv = {"laser": [0.1] * 50 + [0.12] * 10, "absorption": [0.3] * 40 + [0.32] * 9}
        self.assertAlmostEqual(metrics.kind_balanced_median(iv), (0.1 + 0.3) / 2)

    def test_sample_count_is_every_interval(self):
        raw = served_raw(20, steps=7)
        for j in raw["jobs"][::2]:
            j["kind"] = "absorption"
            j["step_arrival_s"] = [1.0 + 0.4 * k for k in range(7)]
        value, _, n = metrics.serve_end_to_end(raw)["step_p50_s"]
        self.assertAlmostEqual(value, (0.2 + 0.4) / 2)
        self.assertEqual(n, 120)


class DeclaredMetrics(unittest.TestCase):
    """BENCHMARK.json is the one list of metric names: what the arithmetic
    produces must match it, so a rename on either side fails here."""

    def test_end_to_end_metrics_are_produced_by_every_workload(self):
        declared = set(metrics.declared("end_to_end"))
        for e2e in (metrics.td_end_to_end(td_raw(100)),
                    metrics.serve_end_to_end(served_raw(25))):
            self.assertLessEqual(declared - {"peak_rss_mb"}, set(e2e))

    def test_per_layer_metrics_are_produced_by_some_workload(self):
        td_layer, _ = metrics.td_layers(td_raw(100))
        serve_layer, _ = metrics.serve_layers(served_raw(25))
        produced = set(td_layer) | set(serve_layer) | set(metrics.host_layers(td_raw(1)))
        self.assertEqual(produced, set(metrics.declared("per_layer")))


class UnattributedAccounting(unittest.TestCase):
    def test_phases_plus_unattributed_equal_wall(self):
        steps = [step(0.30, {"hpsi_fock": 0.10, "residual": 0.05, "density": 0.02}),
                 step(0.20, {"hpsi_fock": 0.08, "anderson": 0.01, "extra": 0.03})]
        phases, unattributed, wall = metrics.phase_breakdown(steps)
        self.assertAlmostEqual(wall, 0.25)
        # A phase with no metric of its own ("extra") still counts as covered.
        self.assertAlmostEqual(unattributed, ((0.30 - 0.17) + (0.20 - 0.12)) / 2)
        self.assertAlmostEqual(sum(phases.values()) + 0.03 / 2 + unattributed, wall)
        self.assertAlmostEqual(phases["ham.hpsi_fock_s"], 0.09)

    def test_critical_rank_sets_the_step(self):
        fast = {"wall_s": 0.1, "phases": {"hpsi_fock": 0.09}}
        slow = {"wall_s": 0.4, "phases": {"hpsi_fock": 0.10}}
        s = {"ranks": [fast, slow]}
        self.assertEqual(metrics.critical_rank(s), 1)
        phases, unattributed, wall = metrics.phase_breakdown([s])
        self.assertAlmostEqual(wall, 0.4)
        self.assertAlmostEqual(unattributed, 0.3)
        self.assertAlmostEqual(phases["ham.hpsi_fock_s"], 0.10)


class FailRatioBase(unittest.TestCase):
    def test_base_is_printed(self):
        self.assertEqual(metrics.fail_ratio(3, 120), (0.025, "3/120"))
        self.assertEqual(metrics.fail_ratio(0, 7), (0.0, "0/7"))

    def test_rejects_empty_or_inconsistent_base(self):
        with self.assertRaises(ValueError):
            metrics.fail_ratio(0, 0)
        with self.assertRaises(ValueError):
            metrics.fail_ratio(5, 4)


class RssUnits(unittest.TestCase):
    def test_kib_to_mb(self):
        # /proc/self/status "VmHWM: 1024 kB" is 1 MiB.
        self.assertEqual(metrics.kib_to_mb(1024), 1.0)
        self.assertEqual(metrics.kib_to_mb(29588), 29588 / 1024)


class ExactCounts(unittest.TestCase):
    def test_segments_repeat(self):
        raw = {"setup": [{"scf_iterations": 3, "scf_outer_iterations": 1}],
               "steps": [step(0.1, {}, segment=s, pairs=4) for s in (0, 0, 1, 1)]}
        self.assertEqual(metrics.exact_repeat_mismatches(raw), [])
        raw["steps"][3]["ranks"][0]["pair_solves"] = 5
        self.assertEqual(len(metrics.exact_repeat_mismatches(raw)), 1)

    def test_every_exact_count_is_a_per_layer_metric(self):
        for name in metrics.EXACT:
            self.assertIn(name, metrics.declared("per_layer"))


if __name__ == "__main__":
    unittest.main()
