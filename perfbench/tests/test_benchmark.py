#!/usr/bin/env python3
"""Self-test of the benchmark: schema of BENCHMARK.json, and a quick run of
every workload in both modes whose result line must match BENCHMARK.json
exactly (names, units and directions, in both directions).

Run from the repository root:

    python3 perfbench/tests/test_benchmark.py

The quick runs build the program first (about half a minute on four cores)
and then take a few seconds each.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402  (perfbench/run.py)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class SpecSchema(unittest.TestCase):
    def test_keys_and_limits(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         run.WORKLOADS)
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(1 <= len(spec["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(spec["per_layer"]) <= 128)
        names = []
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m)
            names.append(m["name"])
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        self.assertEqual(len(names), len(set(names)), "metric names repeat")
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))

    def test_check_metrics_both_directions(self):
        declared = [{"name": "a", "unit": "s", "better": "lower"},
                    {"name": "b", "unit": "ms", "better": "higher"}]
        ok = {"a": {"value": 1, "unit": "s", "better": "lower"},
              "b": {"value": 2, "unit": "ms", "better": "higher"}}
        self.assertEqual(run.check_metrics(declared, ok), [])
        missing = {"a": ok["a"]}
        self.assertEqual(len(run.check_metrics(declared, missing)), 1)
        extra = dict(ok, c={"value": 3, "unit": "s", "better": "lower"})
        self.assertEqual(len(run.check_metrics(declared, extra)), 1)
        wrong = dict(ok, b={"value": 2, "unit": "ms", "better": "lower"})
        self.assertEqual(len(run.check_metrics(declared, wrong)), 1)


class QuickRuns(unittest.TestCase):
    """Every workload, both modes, in --quick mode through the real command."""

    def check(self, workload, trace):
        spec = load_spec()
        cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
               "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--quick"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertIsInstance(result["attempted"], int)
        self.assertIsInstance(result["failed"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = spec["per_layer"] if trace else spec["end_to_end"]
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
        # The human-readable lines carry every metric's unit and direction.
        for m in declared:
            line = re.compile(r"^  %s = \S+ %s \(%s is better[;)]" % (
                re.escape(m["name"]), re.escape(m["unit"]), m["better"]),
                re.M)
            self.assertRegex(proc.stdout, line)

    def test_lan_long(self):
        self.check("lan_long", 0)
        self.check("lan_long", 1)

    def test_wide_n32(self):
        self.check("wide_n32", 0)
        self.check("wide_n32", 1)

    def test_wan_faults(self):
        self.check("wan_faults", 0)
        self.check("wan_faults", 1)


if __name__ == "__main__":
    unittest.main()
