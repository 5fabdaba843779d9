#!/usr/bin/env python3
"""Tests of the tsq end-to-end benchmark itself.

  python3 perfbench/test_perfbench.py

Builds the driver (as run.py does), then runs every workload shrunk by
--scale so that all answer checks run in seconds: the result line keeps
its contract, a wrong answer makes the run exit non-zero, a checkout
without the tsq sources is refused before any result is printed, and the
A/B verdicts of compare.py follow their rules. Standard library only.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
SCALE = "16"


def drive(workload, trace=0, extra=()):
    """Runs the driver on a shrunken workload; returns (exit code, result
    dict or None, stdout)."""
    data_dir = os.path.join(run.BUILD_ROOT, "test-data", workload)
    cmd = [run.BINARY, "--workload", workload, "--seed", "7", "--seconds",
           "1", "--trace", str(trace), "--data-dir", data_dir, "--scale",
           SCALE, *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=300)
    shutil.rmtree(data_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, result, proc.stdout


class DriverTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench build failed")

    def check_contract(self, result, declared):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in declared])
        for m in declared:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_end_to_end_result_line(self):
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"]):
                code, result, out = drive(w["name"])
                self.assertEqual(code, 0, out)
                self.check_contract(result, BENCH["end_to_end"])
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_traced_result_line(self):
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"]):
                code, result, out = drive(w["name"], trace=1)
                self.assertEqual(code, 0, out)
                self.check_contract(result, BENCH["per_layer"])

    def test_wrong_answer_fails_the_run(self):
        # op:N changes the first match of op N: op 0 is a kNN (lookup;
        # ingest's INSERT is op 0, so op 1 is its first kNN), op 1 a
        # range (lookup) or a Tmavg20 range (paper_mix).
        # oracle drops or adds a member other than the query series of
        # one range that is compared with the scan; reindex changes one
        # kNN answer checked after a REINDEX. Each must be caught by the
        # check named.
        cases = [("lookup", "op:0", "kNN of series"),
                 ("lookup", "op:1", "does not contain it"),
                 ("paper_mix", "op:1", "Tmavg20 range of series"),
                 ("ingest", "op:1", "does not return it"),
                 ("lookup", "oracle", "differs from the scan"),
                 ("paper_mix", "oracle", "differs from the scan"),
                 ("ingest", "reindex", "lost after REINDEX")]
        for workload, corrupt, caught_by in cases:
            for trace in (0, 1):
                with self.subTest(workload=workload, corrupt=corrupt,
                                  trace=trace):
                    code, result, out = drive(
                        workload, trace, ["--corrupt", corrupt])
                    self.assertNotEqual(code, 0, out)
                    self.assertFalse(result["correct"])
                    self.assertGreaterEqual(result["failed"], 1)
                    self.assertIn("FAILED", out)
                    self.assertIn(caught_by, out)


class WithoutSourcesTest(unittest.TestCase):
    def test_refuses_without_tsq_sources(self):
        bare = os.path.join(run.BUILD_ROOT, "test-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            BENCH["command"] + ["--workload", "lookup", "--seed", "1",
                                "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=300)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


class VerdictTest(unittest.TestCase):
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]

    def test_gain_needs_nine_of_ten_wins(self):
        change = [v * 0.8 for v in self.parent]
        self.assertEqual(compare.verdict(self.parent, change, "lower", 0.1),
                         ("gain", 10))
        change[0], change[1] = 10.1, 10.3  # two lost pairs: 8 of 10
        self.assertEqual(compare.verdict(self.parent, change, "lower", 0.2),
                         ("no change", 8))

    def test_regression_beyond_bound(self):
        change = [v * 1.3 for v in self.parent]
        self.assertEqual(
            compare.verdict(self.parent, change, "lower", 0.1)[0],
            "regression")
        self.assertEqual(
            compare.verdict(self.parent, change, "higher", 0.1)[0], "gain")

    def test_unresolved_when_spread_exceeds_bound(self):
        noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0]
        self.assertEqual(
            compare.verdict(self.parent, noisy, "lower", 0.1)[0],
            "unresolved")
        # ...unless every change run beats every parent run.
        clear = [v / 10 for v in noisy]
        self.assertEqual(
            compare.verdict(self.parent, clear, "lower", 0.1)[0], "gain")


if __name__ == "__main__":
    unittest.main()
