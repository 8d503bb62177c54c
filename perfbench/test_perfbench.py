#!/usr/bin/env python3
"""Tests of the benchmark itself, at a tiny problem scale.

    python3 perfbench/test_perfbench.py

Run from the repository root; builds like run.py does.  Checks that
every metric BENCHMARK.json names is emitted with its unit and a
finite value (and no other metric is), and that the modeled metrics
repeat exactly for one seed and change with another.
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
TINY = "0.05"


def bench(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "0", "--trace",
         str(trace), "--scale", TINY],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def modeled(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if k.startswith(("model.", "kernel."))}


class Smoke(unittest.TestCase):
    def check_metrics(self, result, declared):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in declared}
        self.assertEqual(set(result["metrics"]), set(want))
        for name, m in result["metrics"].items():
            self.assertEqual(m["unit"], want[name], name)
            self.assertTrue(math.isfinite(m["value"]), name)

    def test_every_declared_metric_is_emitted(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_metrics(bench(w["name"], 3, 0),
                                   SPEC["end_to_end"])
                self.check_metrics(bench(w["name"], 3, 1),
                                   SPEC["per_layer"])

    def test_modeled_metrics_depend_only_on_seed(self):
        for w in ("dyn-stream", "sweep-small"):
            with self.subTest(workload=w):
                a = modeled(bench(w, 5, 0))
                self.assertEqual(a, modeled(bench(w, 5, 0)))
                self.assertNotEqual(a, modeled(bench(w, 6, 0)))


if __name__ == "__main__":
    unittest.main()
