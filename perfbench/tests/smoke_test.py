#!/usr/bin/env python3
"""Seconds-long smoke test of the performance ledger.

    python3 perfbench/tests/smoke_test.py

For every workload in BENCHMARK.json: a one-second untraced run must emit
every end-to-end metric with its unit, a one-second traced run every
per-layer metric with its unit, and both must pass the correctness gate.
Then a run with one corrupted reference score must fail the gate: non-zero
exit, correct=false, at least one failed operation.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
SECONDS = 1


def ledger(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(PERFBENCH, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", str(SECONDS), "--trace",
           str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)
    last = proc.stdout.strip().split("\n")[-1]
    return proc.returncode, json.loads(last), proc.stdout


class LedgerSmoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)
        cls.workloads = [w["name"] for w in cls.bench["workloads"]]

    def check_metrics(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_every_metric_with_its_unit(self):
        for workload in self.workloads:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, result, out = ledger(workload, trace)
                    self.assertEqual(code, 0, out)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertIn("scores_fnv", out)
                    self.check_metrics(result, self.bench[key])
                    if trace == 0:
                        for m in self.bench[key]:
                            self.assertGreater(result["metrics"][m["name"]]
                                               ["value"], 0, m["name"])

    def test_corrupted_reference_trips_the_gate(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                code, result, _ = ledger(workload, 0, "--corrupt-expected")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
