#!/usr/bin/env python3
"""Tests for the repository benchmark itself.

    python3 perfbench/test_perfbench.py

Builds the harness, runs its C++ unit tests (percentiles, goodput, metric
names, spans), checks BENCHMARK.json against the benchmark contract, and runs
every workload smoke-sized, traced and untraced: each run must pass its
correctness checks and emit exactly the metric names BENCHMARK.json lists.
"""
import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (perfbench/run.py)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(workload, seed=1, trace=0, seconds=1):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} failed:\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


class BenchmarkJsonTest(unittest.TestCase):
    def test_contract_shape(self):
        b = bench_json()
        self.assertEqual(set(b), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertEqual(b["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(b["paths"], ["perfbench"])
        self.assertIsInstance(b["run_seconds"], int)
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertLessEqual({w["name"] for w in b["workloads"]}, set(run.WORKLOADS))
        self.assertGreaterEqual(len(b["workloads"]), 2)
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        names = [m["name"] for m in b["end_to_end"] + b["per_layer"]] + \
                [w["name"] for w in b["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in b["end_to_end"]))
        self.assertLessEqual(len((ROOT / "BENCHMARK.json").read_bytes()), 64 * 1024)


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def test_unit_tests(self):
        unit = self.binary.parent / "perfbench_unit"
        out = subprocess.run([str(unit)], capture_output=True, text=True)
        self.assertEqual(out.returncode, 0, out.stdout[-2000:])

    def check_run(self, record, result, expected):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], record["checks_failed"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(record["checks_failed"], [])
        self.assertLessEqual(record["server_threads"] + record["driver_threads"],
                             record["nproc"])
        for key in ("backend", "REGHD_THREADS", "REGHD_KERNEL", "build_type", "commit", "seed"):
            self.assertIn(key, record)
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, m in result["metrics"].items():
            self.assertRegex(name, NAME)
            self.assertEqual(m["unit"], expected[name], name)
            self.assertIsInstance(m["value"], (int, float))

    def test_smoke_runs_of_every_workload(self):
        b = bench_json()
        e2e = {m["name"]: m["unit"] for m in b["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in b["per_layer"]}
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload, trace=0):
                record, result = run_workload(workload, trace=0)
                self.check_run(record, result, e2e)
                self.assertEqual(record["error_frac"]["value"], 0)
            with self.subTest(workload=workload, trace=1):
                record, result = run_workload(workload, trace=1)
                self.check_run(record, result, layers)
                self.assertGreater(record["span_count"], 0)

    def test_train_model_crc_repeats_for_a_seed(self):
        first, _ = run_workload("train_sharded", seed=7)
        second, _ = run_workload("train_sharded", seed=7)
        self.assertEqual(first["model_crc32c"], second["model_crc32c"])

    def test_fails_without_the_sources(self):
        # Only BENCHMARK.json and perfbench/: no program to build, no result.
        bare = run.build_dir() / "bare_checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "serve_snapshot", "--seed",
                 "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(out.returncode, 0)
            self.assertEqual(out.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
