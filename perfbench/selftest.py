#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Run from the repository root; builds perfbench first (see run.py). Checks
that
  * a short run, untraced and traced, is correct and prints exactly the
    metric names BENCHMARK.json lists, with their units;
  * workload generation is a pure function of the seed: the same --seed
    gives the same inputs, and a different seed a different serving load.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SHORT_SECONDS = "2"


def run_benchmark(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", SHORT_SECONDS, "--trace",
         str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=run.ROOT, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def input_digest(workload, seed):
    out = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", str(seed), "--inputs"],
        stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout)["inputs"]


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.spec = run.load_spec()

    def check_names(self, workload):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run_benchmark(workload, trace)
            self.assertTrue(result["correct"], (workload, trace))
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            expected = {m["name"]: m["unit"] for m in self.spec[key]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(printed, expected, (workload, key))

    def test_metric_names(self):
        # sim-pace: the faster workload; both run the same code path.
        self.check_names("sim-pace")

    def test_inputs_are_seed_deterministic(self):
        for w in self.spec["workloads"]:
            name = w["name"]
            self.assertEqual(input_digest(name, 1), input_digest(name, 1),
                             name)
            self.assertNotEqual(input_digest(name, 1), input_digest(name, 2),
                                name)


if __name__ == "__main__":
    unittest.main()
