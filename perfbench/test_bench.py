#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_bench.py

Builds through run.py, then checks that
  - every search workload gives bit-identical cycles on 1 and 2 evaluator
    threads (cyclebench --selftest),
  - score_db and the evaluations per cycle repeat exactly for one seed,
  - a pressd run leaves no daemon, socket or file behind.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ beside run.py
sys.path.insert(0, HERE)
import run as bench  # noqa: E402

SEARCH = ("massive_vote", "wideband_masked", "multiuser_maxmin")


def bench_run(workload, seed, seconds=1, trace=0):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    return json.loads(lines[-1]), lines


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out = bench.build_dir()
        assert bench.build(cls.out), "build failed"

    def test_thread_count_does_not_change_cycles(self):
        for workload in SEARCH:
            with self.subTest(workload=workload):
                proc = subprocess.run(
                    [os.path.join(self.out, "cyclebench"), "--selftest",
                     "--workload", workload, "--seed", "5", "--seconds",
                     "1"], capture_output=True, text=True, check=True)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertTrue(result["correct"], proc.stdout)
                self.assertIn("identical", proc.stdout)

    def test_score_and_evaluations_repeat_for_a_seed(self):
        for workload in SEARCH:
            with self.subTest(workload=workload):
                runs = [bench_run(workload, 7) for _ in range(2)]
                scores = [r["metrics"]["score_db"]["value"] for r, _ in runs]
                self.assertEqual(scores[0], scores[1])
                evals = [re.search(r"(\d+) evals per cycle",
                                   "\n".join(lines)).group(1)
                         for _, lines in runs]
                self.assertEqual(evals[0], evals[1])
                self.assertTrue(all(r["correct"] for r, _ in runs))

    def test_pressd_run_leaves_nothing_behind(self):
        before = subprocess.run(["git", "status", "--porcelain",
                                 "--ignored"], cwd=ROOT,
                                capture_output=True, text=True).stdout
        result, _ = bench_run("pressd_open_loop", 3, seconds=2)
        self.assertGreater(result["attempted"], 0)
        daemons = subprocess.run(["pgrep", "-f", self.out + "/pressd"],
                                 capture_output=True, text=True).stdout
        self.assertEqual(daemons.strip(), "")
        runs = os.path.join(self.out, "runs")
        self.assertEqual(os.listdir(runs), [])
        after = subprocess.run(["git", "status", "--porcelain",
                                "--ignored"], cwd=ROOT,
                               capture_output=True, text=True).stdout
        self.assertEqual(before, after)


if __name__ == "__main__":
    unittest.main()
