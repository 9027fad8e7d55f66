#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 smrbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. NAME is a workload of BENCHMARK.json. The
first run builds the smrbench binary (CMake, Release) into .bench_build/;
later runs only check it is up to date. The workload's parameters come
from smrbench/spec.json. The binary measures the five SMR schemes and
checks its outputs; this script then checks that every metric
BENCHMARK.json names for the mode (end-to-end with --trace 0, per-layer
with --trace 1) was emitted, is finite and carries its unit. It prints an environment stamp line, then the result line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and writes the full result (checks, sample counts, span self times; spans
as CSV for traced runs) under .bench_build/smrbench-out/.

Exit status: 0 when every check passed, 1 when a correctness check failed
(the result line still prints, with "correct": false), 2 when the benchmark
could not run (no result line).

Test hooks: --smoke shrinks every size for a quick run; --break-size-model
makes the binary expect one key too many, so its size check must fail.
"""
import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BUILD_DIR = BUILD / "smrbench"
OUT_DIR = BUILD / "smrbench-out"
# The first run builds, so it gets the longer limit.
BUILD_LIMIT_S = 840
RUN_LIMIT_S = 170


def fail(message):
    print(f"smrbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env():
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = str(tmp)
    return env


def build(deadline):
    if not (ROOT / "src" / "smr" / "smr.hpp").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", "3"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  env=child_env(),
                                  timeout=max(1, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build failed: {err}")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return BUILD_DIR / "smrbench"


def scaled(params, smoke):
    """Workload parameters as --param arguments; --smoke divides sizes."""
    args = []
    for key, value in params.items():
        if smoke and key in ("size", "key_range", "buckets"):
            value = max(16, value // 50)
        args += ["--param", f"{key}={value}"]
    return args


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def validate(raw, expected):
    """Problems with the emitted metrics: missing, not finite, wrong unit."""
    problems = []
    metrics = raw.get("metrics", {})
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"{m['name']}: not emitted")
        elif not isinstance(got.get("value"), (int, float)) or not math.isfinite(got["value"]):
            problems.append(f"{m['name']}: value {got.get('value')!r} is not finite")
        elif got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}, expected {m['unit']!r}")
    return problems


def main():
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--break-size-model", action="store_true")
    args = parser.parse_args()

    try:
        spec = json.loads((HERE / "spec.json").read_text())
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read the benchmark definition: {err}")
    workloads = {w["name"]: w for w in spec["workloads"]}
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r} (known: {', '.join(workloads)})")
    if args.seed < 0 or not 0 < args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in (0, 600]")
    workload = workloads[args.workload]

    fresh = not (BUILD_DIR / "smrbench").is_file()
    binary = build(start + (BUILD_LIMIT_S if fresh else RUN_LIMIT_S))

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    command += scaled(workload["params"], args.smoke)
    if args.trace:
        command += ["--spans-out", f"{stem}-spans.csv"]
    if args.break_size_model:
        command.append("--break-size-model")
    limit = (BUILD_LIMIT_S if fresh else RUN_LIMIT_S) - (time.monotonic() - start)
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, env=child_env(), timeout=max(1, limit))
    except (OSError, subprocess.TimeoutExpired) as err:
        fail(f"benchmark run failed: {err}")
    lines = done.stdout.strip().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"no result from the benchmark binary (exit status {done.returncode})")
    if done.returncode not in (0, 1):
        fail(f"benchmark binary exited with status {done.returncode}")

    expected = bench["per_layer"] if args.trace else bench["end_to_end"]
    problems = validate(raw, expected)
    for problem in problems:
        print(f"smrbench: metric {problem}", file=sys.stderr)
    if problems:
        sys.exit(2)

    info = raw.get("info", {})
    env = {
        "git_sha": git_sha(),
        "compiler": info.get("compiler"),
        "build_type": info.get("build_type"),
        "nproc": info.get("nproc"),
        "pool_effective": info.get("pool_effective"),
        "reclaim": info.get("reclaim"),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
    }
    result = {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {m["name"]: raw["metrics"][m["name"]] for m in expected},
    }
    full = dict(raw, env=env, params=workload["params"])
    Path(f"{stem}.json").write_text(json.dumps(full, indent=1) + "\n")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
