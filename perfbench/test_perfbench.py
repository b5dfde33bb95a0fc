#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Runs every workload at tiny scale, traced and untraced, and checks that
its correctness checks pass, that it emits every metric BENCHMARK.json
declares (end-to-end untraced, per-layer traced) with its unit, and that
the traced run writes a Chrome trace with spans in every layer. Also
checks BENCHMARK.json against the benchmark contract and that the
benchmark refuses to run without the repository's sources. Takes about
15 s after the first build.
"""
import json
import math
import os
import re
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

E2E = {m["name"]: m for m in SPEC["end_to_end"]}
LAYERS = {m["name"]: m for m in SPEC["per_layer"]}

# Every workload reports every metric: the end-to-end ones untraced,
# the per-layer ones traced, with spans in every layer.
ALL_LAYERS = {"ingest", "io", "core", "partition", "exec", "serve"}
EXPECTED = {w["name"]: (set(E2E), set(LAYERS), ALL_LAYERS)
            for w in SPEC["workloads"]}

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=900)


class BenchmarkSpecTest(unittest.TestCase):
    def test_contract_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        self.assertTrue(1 <= len(SPEC["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(SPEC["per_layer"]) <= 128)
        names = [w["name"] for w in SPEC["workloads"]]
        names += list(E2E) + list(LAYERS)
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for workload in SPEC["workloads"]:
            self.assertEqual(set(workload), {"name", "why"})
            self.assertLessEqual(len(workload["why"]), 200)
        for metric in SPEC["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertLessEqual(metric["bound"], 0.25)
            self.assertRegex(metric["unit"], UNIT)
        for metric in SPEC["per_layer"]:
            self.assertEqual(set(metric), {"name", "unit", "better"})
            self.assertRegex(metric["unit"], UNIT)
        setup = E2E["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))
        self.assertEqual(set(EXPECTED), {"oocore_rmat_t1", "serve_mixed"})


class TinyWorkloadTest(unittest.TestCase):
    def check_run(self, workload, trace):
        out = run_bench(workload, trace)
        self.assertEqual(out.returncode, 0, out.stderr[-3000:])
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        info = json.loads(lines[-2])["info"]
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], out.stderr[-3000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        for key in ("nproc", "threads", "loadavg_1m_at_start",
                    "input_checksum"):
            self.assertIn(key, info)
        declared = LAYERS if trace else E2E
        expected = EXPECTED[workload][trace]
        self.assertEqual(set(result["metrics"]), expected)
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], declared[name]["unit"], name)
            self.assertTrue(math.isfinite(metric["value"]), name)
            if not trace:
                self.assertNotEqual(metric["value"], 0, name)
        return info

    def check_trace(self, workload, info):
        with open(info["chrome_trace"]) as f:
            events = json.load(f)["traceEvents"]
        ids = {e["args"]["id"] for e in events}
        for event in events:
            self.assertEqual(event["ph"], "X")
            parent = event["args"]["parent"]
            self.assertTrue(parent == 0 or parent in ids)
        self.assertLessEqual(EXPECTED[workload][2],
                             {e["cat"] for e in events})

    def test_oocore_rmat_t1(self):
        self.check_run("oocore_rmat_t1", 0)
        self.check_trace("oocore_rmat_t1", self.check_run("oocore_rmat_t1", 1))

    def test_serve_mixed(self):
        self.check_run("serve_mixed", 0)
        self.check_trace("serve_mixed", self.check_run("serve_mixed", 1))


class NoSourcesTest(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_work", "bare_checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "serve_mixed", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=bare, env=env, capture_output=True, text=True,
                timeout=180)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
