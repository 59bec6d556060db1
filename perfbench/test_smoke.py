#!/usr/bin/env python3
"""Smoke-size test of the benchmark itself.

Run from the root of a checkout:
    python3 perfbench/test_smoke.py

Each workload runs for one second with --trace 0 and --trace 1. The test
asserts that every metric BENCHMARK.json names is printed with its unit,
that no other metric is, and that the correctness gate passes. It also
checks that the benchmark refuses to run, without printing a result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.getcwd()
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def last_json(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    return json.loads(lines[-1])


class Smoke(unittest.TestCase):
    def check_run(self, workload, trace, expected):
        proc = run(["--workload", workload, "--seed", "1", "--seconds", "1",
                    "--trace", str(trace)])
        self.assertEqual(proc.returncode, 0, proc.stderr)
        res = last_json(proc.stdout)
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"], proc.stdout)
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        got = {name: m["unit"] for name, m in res["metrics"].items()}
        self.assertEqual(got, {m["name"]: m["unit"] for m in expected})
        for name, m in res["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
        return res["metrics"]

    def test_end_to_end(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                m = self.check_run(w["name"], 0, SPEC["end_to_end"])
                self.assertEqual(m["correct_ratio"]["value"], 1)
                self.assertEqual(m["decided_ratio"]["value"], 1)
                self.assertEqual(m["success_ratio"]["value"], 1)

    def test_per_layer(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_run(w["name"], 1, SPEC["per_layer"])

    def test_refuses_without_sources(self):
        bare = os.path.join(ROOT, ".bench_work", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run(["--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                        "--seconds", "1", "--trace", "0"], cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
