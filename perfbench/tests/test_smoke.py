#!/usr/bin/env python3
"""Smoke tests of the end-to-end benchmark at its tiny size.

    python3 perfbench/tests/test_smoke.py

Builds leo_perfbench through run.py (first run only), then checks that
every workload completes at --size smoke with ok_frac 1 and prints
every metric BENCHMARK.json names, with its unit; that quality
metrics and counts are bit-identical for a repeated seed and at one
and two threads; and that run.py refuses to run without the sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ["fleet_onboard", "fleet_steady", "phased_trace"]
# Pure functions of (workload, seed): quality metrics and counts.
EXACT_E2E = ["ok_frac", "energy_vs_oracle", "deadline_hit_rate"]
EXACT_LAYER = ["service.fits_batched", "service.cache_hit_ratio",
               "service.snapshot_mb", "estimators.em_iters_per_fit",
               "estimators.ridge_retries", "runtime.reestimations",
               "runtime.changepoints", "runtime.fallback_windows",
               "runtime.probe_window_share", "optimizer.lp_solves",
               "optimizer.lp_pivots_per_tick", "parallel.tasks_posted"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, seed=7, extra=()):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed",
           str(seed), "--seconds", "1", "--trace", str(trace), "--size",
           "smoke"] + list(extra)
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise AssertionError("%s failed (%d): %s" % (
            " ".join(cmd), proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Smoke(unittest.TestCase):
    def check_metrics(self, result, wanted):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        got = result["metrics"]
        self.assertEqual(sorted(got), sorted(m["name"] for m in wanted))
        for m in wanted:
            self.assertEqual(got[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(got[m["name"]]["value"], (int, float))

    def test_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r = run(w, 0)
                self.check_metrics(r, SPEC["end_to_end"])
                self.assertEqual(r["metrics"]["ok_frac"]["value"], 1)
                for m in SPEC["end_to_end"]:
                    self.assertGreater(r["metrics"][m["name"]]["value"],
                                       0, m["name"])

    def test_per_layer_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_metrics(run(w, 1), SPEC["per_layer"])

    def test_repeated_seed_is_bit_identical(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, b = run(w, 0), run(w, 0)
                for name in EXACT_E2E:
                    self.assertEqual(a["metrics"][name],
                                     b["metrics"][name], name)
                a, b = run(w, 1), run(w, 1)
                for name in EXACT_LAYER:
                    self.assertEqual(a["metrics"][name],
                                     b["metrics"][name], name)

    def test_one_and_two_threads_agree(self):
        for w in ["fleet_onboard", "fleet_steady"]:
            with self.subTest(workload=w):
                one = run(w, 0, extra=["--threads", "1"])
                two = run(w, 0, extra=["--threads", "2"])
                for name in EXACT_E2E:
                    self.assertEqual(one["metrics"][name],
                                     two["metrics"][name], name)
                one = run(w, 1, extra=["--threads", "1"])
                two = run(w, 1, extra=["--threads", "2"])
                for name in EXACT_LAYER:
                    if name == "parallel.tasks_posted":
                        continue  # Zero-worker pools post nothing.
                    self.assertEqual(one["metrics"][name],
                                     two["metrics"][name], name)

    def test_refuses_without_sources(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "fleet_onboard", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp, capture_output=True,
                text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
