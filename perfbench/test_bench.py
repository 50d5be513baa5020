#!/usr/bin/env python3
"""Self-test of the pipeline benchmark at a tiny size.

Run from anywhere (it runs the benchmark from the repository root):

    python3 perfbench/test_bench.py

It checks that every metric BENCHMARK.json names is printed with its unit
on every workload, that deliberately corrupted inputs and wrong expected
race counts make the checks fail (so the checks really run), that the same
seed gives the same input bytes, and that the benchmark refuses to run
without the repository's sources. Takes about two minutes.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def run_bench(workload, trace=0, inject="none", seed=7, cwd=ROOT):
    """(exit code, final JSON object or None, stdout)."""
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny", "--inject", inject],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = r.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return r.returncode, result, r.stdout + r.stderr


def provenance(workload):
    path = os.path.join(ROOT, ".bench_work", workload, "result-trace0.json")
    with open(path) as f:
        return json.load(f)["provenance"]


class BenchmarkSelfTest(unittest.TestCase):
    def test_every_metric_printed_with_its_unit(self):
        for w in BENCH["workloads"]:
            for trace, key in [(0, "end_to_end"), (1, "per_layer")]:
                with self.subTest(workload=w["name"], trace=trace):
                    rc, res, out = run_bench(w["name"], trace)
                    self.assertEqual(rc, 0, out)
                    self.assertTrue(res["correct"], out)
                    self.assertEqual(res["failed"], 0, out)
                    self.assertGreaterEqual(res["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in BENCH[key]}
                    got = {n: v["unit"] for n, v in res["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, unit in want.items():
                        self.assertRegex(out, re.escape(name) + r"\s+\S+ " + re.escape(unit))
                    self.assertIn("failed_frac", out)

    def test_checks_catch_deliberate_faults(self):
        cases = [("stb-ccs", "corrupt-input"), ("stb-ccs", "wrong-expected"),
                 ("text-lint-ndjson", "corrupt-input"),
                 ("text-lint-ndjson", "wrong-expected"),
                 ("serve-open", "wrong-expected")]
        for workload, inject in cases:
            with self.subTest(workload=workload, inject=inject):
                rc, res, out = run_bench(workload, 0, inject)
                self.assertEqual(rc, 1, out)
                self.assertFalse(res["correct"], out)
                self.assertGreater(res["failed"], 0, out)
                self.assertRegex(out, r"failed_frac\s+0\.\d*[1-9]")

    def test_same_seed_same_input(self):
        hashes = []
        for seed in (7, 7, 8):
            rc, _, out = run_bench("stb-ccs", 0, seed=seed)
            self.assertEqual(rc, 0, out)
            hashes.append(provenance("stb-ccs")["input_sha256"])
        self.assertEqual(hashes[0], hashes[1])
        self.assertNotEqual(hashes[0], hashes[2])

    def test_refuses_to_run_without_sources(self):
        bare = os.path.join(ROOT, ".bench_work", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"))
        try:
            rc, res, out = run_bench("stb-ccs", cwd=bare)
            self.assertNotEqual(rc, 0, out)
            self.assertIsNone(res, out)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
