#!/usr/bin/env python3
"""Tests of the benchmark itself, at tiny scale:

- every workload passes its checks and reports exactly the metric names
  BENCHMARK.json lists, traced and untraced;
- each correctness check fails when its reference is wrong;
- a traced run's layer self times add up to its wall clock;
- compare.py refuses results whose fingerprints differ;
- run.py fails, printing no result, without the repository's sources.

Run from the repository root: python3 perfbench/tests/test_perfbench.py
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace=0, perturb=None, cwd=ROOT, run=RUN, env=None):
    cmd = [sys.executable, str(run), "--workload", workload, "--seed", "3",
           "--seconds", "0.2", "--trace", str(trace), "--scale", "tiny"]
    if perturb:
        cmd += ["--perturb", perturb]
    done = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900,
                          env=env)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return done.returncode, result


def result_file(workload, trace):
    build = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return json.loads((build / "perfbench-results" /
                       f"{workload}-seed3-trace{trace}.json").read_text())


class Workloads(unittest.TestCase):
    def test_untraced_and_traced_runs_report_every_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, result = bench(w, trace=0)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(set(result["metrics"]), E2E)
                for m in result["metrics"].values():
                    self.assertGreater(m["value"], 0)

                code, result = bench(w, trace=1)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(set(result["metrics"]), PER_LAYER)
                # The traced passes measure the same end-to-end metrics
                # as the untraced ones (every one but the per-run figures).
                report = result_file(w, 1)["report"]
                self.assertEqual(set(report["e2e_traced"]),
                                 E2E - {"step_p50_ms", "step_tail_ms",
                                        "setup_s", "peak_rss_mb"})
                self.assertEqual(set(report["e2e"]), E2E)

    def test_stage_sum_matches_wall_clock(self):
        code, result = bench("svc-sharded", trace=1)
        self.assertEqual(code, 0)
        report = result_file("svc-sharded", 1)["report"]
        self.assertGreater(report["traced_passes"], 0)
        layer = report["per_layer"]
        selfs = sum(v for k, v in layer.items() if k.endswith(".self_s"))
        self.assertLess(abs(layer["bench.stage_sum_gap_s"]), 2e-3)
        # Medians of per-layer figures need not add up exactly; they land
        # close to the median traced pass.
        total = selfs + layer["bench.unattributed_s"]
        self.assertAlmostEqual(total / report["e2e_traced"]["pass_s"], 1.0,
                               delta=0.25)


class ChecksCatchWrongReferences(unittest.TestCase):
    def expect_failure(self, workload, perturb, check):
        code, result = bench(workload, perturb=perturb)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        failed = [c["name"] for c in
                  result_file(workload, 0)["report"]["failed_checks"]]
        self.assertIn(check, failed)

    def test_wrong_flag_set(self):
        self.expect_failure("svc-steady", "flags", "flags")

    def test_wrong_single_shard_digest(self):
        self.expect_failure("svc-sharded", "digest", "single-shard digest")

    def test_wrong_uncrashed_digest(self):
        self.expect_failure("svc-steady", "crash", "crash-recovery digest")

    def test_svm_accuracy_out_of_band(self):
        self.expect_failure("paper-table1", "table1", "svm accuracy")


class Compare(unittest.TestCase):
    def test_refuses_mismatched_fingerprints(self):
        code, _ = bench("svc-steady")
        self.assertEqual(code, 0)
        data = result_file("svc-steady", 0)
        with tempfile.TemporaryDirectory() as tmp:
            a, b = Path(tmp) / "a.json", Path(tmp) / "b.json"
            a.write_text(json.dumps(data))
            data["fingerprint"]["nproc"] = data["fingerprint"]["nproc"] + 1
            b.write_text(json.dumps(data))
            done = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "compare.py"),
                 str(a), str(b)], stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True)
            self.assertEqual(done.returncode, 3)
            self.assertIn("fingerprints differ in nproc", done.stderr)
            same = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "compare.py"),
                 str(a), str(a)], stdout=subprocess.PIPE, text=True)
            self.assertEqual(same.returncode, 0)


class BareCheckout(unittest.TestCase):
    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench")
            env = dict(os.environ, CARGO_TARGET_DIR=str(Path(tmp) / "build"))
            code, result = bench("svc-steady", cwd=tmp, env=env,
                                 run=Path(tmp) / "perfbench" / "run.py")
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
