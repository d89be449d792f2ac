#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload flood-rtt --seed 1 --seconds 10 --trace 0

Builds the benchmark binary (perfbench/CMakeLists.txt, which compiles the
program's libraries from ../src) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs it. The binary's human-readable report is
passed through; the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. Its metric names and units are
checked against BENCHMARK.json before it is printed.

Exit status: 0 when every output check passed, 1 when one failed, 2 when the
program cannot be built, 3 when the binary's output breaks that format.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures and builds the benchmark binary; returns its path or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"program sources not found under {ROOT / 'src'}")
        return None
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"build step failed: {err}")
            return None
        if proc.returncode != 0:
            log(f"build step failed ({proc.returncode}): {' '.join(cmd)}")
            return None
    binary = out / "perfbench"
    return binary if binary.is_file() else None


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, trace):
    """Returns what is wrong with one result object (empty when it is valid)."""
    problems = []
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed",
                                                         "metrics"}:
        return ["result keys are not exactly correct/attempted/failed/metrics"]
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    want = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        problems.append(f"metric names differ from BENCHMARK.json: missing "
                        f"{sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        m = got.get(name)
        if m is None:
            continue
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            problems.append(f"{name}: not a {{value, unit}} object")
        elif m["unit"] != unit:
            problems.append(f"{name}: unit {m['unit']} != {unit}")
        elif not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{name}: value is not a finite number")
    return problems


def run(binary, workload, seed, seconds, trace):
    """Runs the binary; returns (exit code, report lines, result line)."""
    work = build_dir() / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        proc = subprocess.run(
            [str(binary), "--workload", workload, "--seed", str(seed), "--seconds",
             str(seconds), "--trace", str(trace), "--work-dir", str(work)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return 3, [], None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n") if proc.stdout else []
    return proc.returncode, lines[:-1], (lines[-1] if lines else None)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["flood-rtt", "bigframe-sim", "sybil-churn-sim"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2
    code, report, last = run(binary, args.workload, args.seed, args.seconds, args.trace)
    for line in report:
        print(line)
    if code not in (0, 1) or last is None:
        log(f"benchmark binary exited with {code}")
        return 3
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        log("the binary's last line is not JSON")
        return 3
    problems = check_result(result, args.trace == 1)
    if problems:
        for p in problems:
            log(p)
        return 3
    print(last, flush=True)
    return 0 if result["correct"] and code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
