#!/usr/bin/env python3
"""The benchmark's own tests, on the smoke scale (seconds per workload).

    python3 perfbench/test_perfbench.py            # from the checkout root

Checks that every workload emits every metric BENCHMARK.json names, with
its unit, in both modes; that the correctness gate trips on a wrong
reference; that the compare tool's verdicts follow its rules; and that
the benchmark refuses to run without the library sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import compare  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def scratch():
    """Temporary directory inside the checkout's build tree."""
    base = run.build_dir() / "test-tmp"
    base.mkdir(parents=True, exist_ok=True)
    return tempfile.mkdtemp(dir=base)


def bench(*extra, cwd=ROOT, out=None):
    args = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
            "--seed", "5", "--seconds", "1", "--smoke"] + list(extra)
    if out is not None:
        args += ["--out", out]
    return subprocess.run(args, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def result(proc):
    last = proc.stdout.strip().splitlines()[-1]
    return json.loads(last)


class BenchmarkFileTest(unittest.TestCase):
    def test_units_match_the_program(self):
        e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        self.assertEqual(e2e, run.END_TO_END_UNITS)
        self.assertEqual(layers, run.PER_LAYER_UNITS)
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]],
                         list(run.WORKLOADS))


class SmokeTest(unittest.TestCase):
    """Every workload, both modes: every named metric with its unit."""

    @classmethod
    def setUpClass(cls):
        cls.out = scratch()

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.out, ignore_errors=True)

    def check(self, workload, trace):
        proc = bench("--workload", workload, "--trace", str(trace),
                     out=self.out)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        res = result(proc)
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"], res)
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(res["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        if trace:
            traces = list(Path(self.out).glob(f"{workload}-*.trace.json"))
            self.assertTrue(traces)
            events = json.loads(traces[0].read_text())["traceEvents"]
            self.assertTrue(any(e["ph"] == "X" for e in events))
        else:
            for m in wanted:
                self.assertGreater(res["metrics"][m["name"]]["value"], 0,
                                   m["name"])

    def test_paper_timeline(self):
        self.check("paper_timeline", 0)
        self.check("paper_timeline", 1)

    def test_capture_flood(self):
        self.check("capture_flood", 0)
        self.check("capture_flood", 1)

    def test_query_mix(self):
        self.check("query_mix", 0)
        self.check("query_mix", 1)


class GateTest(unittest.TestCase):
    """A wrong reference must show up as failed operations."""

    def check(self, workload):
        out = scratch()
        try:
            proc = bench("--workload", workload, "--trace", "0",
                         "--corrupt-reference", out=out)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        res = result(proc)
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"], 0)

    def test_batch_digest_gate(self):
        self.check("paper_timeline")

    def test_spilled_digest_gate(self):
        self.check("capture_flood")

    def test_response_gate(self):
        self.check("query_mix")


class CompareTest(unittest.TestCase):
    BASE = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]

    @staticmethod
    def side(values):
        return compare.side({i: [v] for i, v in enumerate(values)})

    def verdict(self, parent, change):
        return compare.verdict(self.side(parent), self.side(change),
                               "lower", 0.1)[1]

    def test_verdicts(self):
        base = self.BASE
        self.assertEqual(self.verdict(base, [v * 0.8 for v in base]),
                         "improved")
        self.assertEqual(self.verdict(base, [v * 1.01 for v in base]),
                         "no worse")
        self.assertEqual(self.verdict(base, [v * 1.5 for v in base]),
                         "regressed")
        noisy = [1.0, 2.0, 0.5, 1.5, 0.7, 1.9, 0.6, 1.2, 0.8, 1.7]
        self.assertEqual(self.verdict(noisy, [v * 1.05 for v in noisy]),
                         "unresolved")
        # Wider than the bound, but every change run beats every parent run.
        self.assertEqual(self.verdict(noisy, [v * 0.2 for v in noisy]),
                         "no worse")

    def compare_dirs(self, parent, change):
        """Run compare.py on two sets of run records, each given as
        (factor, failed) applied to BASE; returns (exit code, stdout)."""
        d = Path(scratch())
        try:
            for name, (factor, failed) in (("p", parent), ("c", change)):
                (d / name).mkdir()
                for seed, v in enumerate(self.BASE):
                    rec = {"workload": "paper_timeline", "seed": seed,
                           "trace": 0, "correct": failed == 0,
                           "attempted": 4, "failed": failed,
                           "end_to_end": {"time_to_report_s": v * factor}}
                    (d / name / f"{seed}.json").write_text(json.dumps(rec))
                # A traced record's end-to-end figures must not count.
                rec = {"workload": "paper_timeline", "seed": 0, "trace": 1,
                       "correct": True, "attempted": 4, "failed": 0,
                       "end_to_end": {"time_to_report_s": 100.0},
                       "per_layer": {"core.epochs_s": 1.0}}
                (d / name / "traced.json").write_text(json.dumps(rec))
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "compare.py"),
                 str(d / "p"), str(d / "c")], stdout=subprocess.PIPE,
                text=True)
        finally:
            shutil.rmtree(d, ignore_errors=True)
        return proc.returncode, proc.stdout

    def test_exit_code_flags_a_regression(self):
        code, out = self.compare_dirs((1.0, 0), (1.5, 0))
        self.assertEqual(code, 1)
        self.assertIn("regressed", out)

    def test_same_runs_are_no_worse(self):
        code, out = self.compare_dirs((1.0, 0), (1.0, 0))
        self.assertEqual(code, 0, out)
        self.assertIn("no worse", out)
        self.assertNotIn("100", out)

    def test_failed_operations_void_a_gain(self):
        code, out = self.compare_dirs((1.0, 0), (0.5, 1))
        self.assertEqual(code, 1)
        self.assertIn("invalid", out)
        self.assertNotIn("improved", out)


class StandaloneTest(unittest.TestCase):
    def test_refuses_without_library_sources(self):
        d = scratch()
        try:
            shutil.copy(ROOT / "BENCHMARK.json", d)
            shutil.copytree(BENCH_DIR, Path(d) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "paper_timeline", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=d, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=180)
        finally:
            shutil.rmtree(d, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(any(l.startswith("{") for l in
                             proc.stdout.splitlines()))


if __name__ == "__main__":
    unittest.main()
