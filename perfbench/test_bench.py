#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_bench.py

Builds the benchmark binary like run.py does, then checks that
  * every decorator is a pure pass-through: a simulator run with and without
    the decorators gives identical deterministic counts;
  * every metric a run prints matches BENCHMARK.json, traced and untraced;
  * a held-out seed, never used while the benchmark was tuned, passes every
    output check on every workload;
  * without the program's sources the benchmark fails without a result.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

HELD_OUT_SEED = 90210
SECONDS = "3"
# Every workload run.py accepts; BENCHMARK.json lists a subset of them.
WORKLOADS = ["flood-rtt", "bigframe-sim", "sybil-churn-sim"]


def run_benchmark(cwd, workload, trace, seed=HELD_OUT_SEED):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
    return proc


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        if cls.binary is None:
            raise RuntimeError("the benchmark binary does not build")

    def test_decorators_are_pure_passthroughs(self):
        code, report, last = run.run(self.binary, "passthrough", HELD_OUT_SEED, 2, 0)
        result = json.loads(last)
        self.assertEqual(code, 0, "\n".join(report))
        self.assertTrue(result["correct"])

    def test_held_out_seed_metric_names_and_checks(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        listed = [w["name"] for w in spec["workloads"]]
        self.assertGreaterEqual(len(listed), 2)
        self.assertTrue(set(listed) <= set(WORKLOADS))
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = run_benchmark(run.ROOT, workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    result = json.loads(proc.stdout.strip().split("\n")[-1])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(list(result["metrics"]),
                                     [m["name"] for m in spec[key]])
                    for m in spec[key]:
                        self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
                    if trace == 0:
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)

    def test_fails_without_program_sources(self):
        bare = run.build_dir().parent / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for f in (run.ROOT / "perfbench").iterdir():
            if f.is_file():
                shutil.copy(f, bare / "perfbench")
        shutil.copytree(run.ROOT / "perfbench" / "src", bare / "perfbench" / "src")
        try:
            proc = run_benchmark(bare, "flood-rtt", 0)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
