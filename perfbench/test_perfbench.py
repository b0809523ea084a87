#!/usr/bin/env python3
"""Tests of the benchmark itself (not of the library).

    python3 perfbench/test_perfbench.py          # from the repository root

Each test runs perfbench/run.py on tiny inputs (--quick) and checks the
result-line contract, that every printed metric is declared with its unit
in BENCHMARK.json, and that the correctness gate fails on a tampered
reply.  The first test builds the benchmark if needed (about a minute).
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mixed-50k", "join-100k")  # BENCHMARK.json
MANUAL = ("point-1m",)                   # config.json only
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(workload, trace=0, extra=(), cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1.5",
           "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result_of(proc):
    return json.loads(proc.stdout.strip().split("\n")[-1])


class SpecTest(unittest.TestCase):
    def test_benchmark_json_contract(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


class QuickRunTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_run(self, workload, trace):
        proc = run(workload, trace, ["--quick"])
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        result = result_of(proc)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        declared = self.spec["per_layer" if trace else "end_to_end"]
        want = {m["name"]: m["unit"] for m in declared}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
        if not trace:
            for name, m in result["metrics"].items():
                self.assertGreater(m["value"], 0, name)
        # The report before the result line names every metric too.
        report = "\n".join(proc.stdout.strip().split("\n")[:-1])
        for name in want:
            self.assertIn(name, report)
        self.assertIn('"ndebug": true', report)

    def test_every_metric_declared(self):
        for workload in WORKLOADS + MANUAL:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_run(workload, trace)

    def test_tampered_reply_fails_gate(self):
        for workload in ("mixed-50k", "join-100k"):
            with self.subTest(workload=workload):
                proc = run(workload, 0, ["--quick", "--tamper"])
                self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
                self.assertIs(result_of(proc)["correct"], False)
                self.assertIn("CHECK FAILED", proc.stdout)


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_repository_sources(self):
        bare = os.path.join(ROOT, ".bench_work", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("join-100k", 0, (), cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            last = proc.stdout.strip().split("\n")[-1] if proc.stdout.strip() else ""
            self.assertFalse(last.startswith("{"), last)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
