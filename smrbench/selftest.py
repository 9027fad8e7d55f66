#!/usr/bin/env python3
"""Self-test of the benchmark, at tiny sizes (about a minute).

    python3 smrbench/selftest.py

Asserts that
  * BENCHMARK.json is what gen_benchmark_json.py makes of spec.json;
  * on every workload, untraced and traced, the result line has exactly the
    four keys, every check passes, and every end-to-end (untraced) or
    per-layer (traced) metric is emitted, finite and in its unit;
  * with a deliberately broken size model the size check fails: run.py
    exits 1, prints "correct": false, and names the check.
Exits 0 when all hold, 1 otherwise.
"""
import json
import math
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import gen_benchmark_json  # noqa: E402

FAILURES = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def run(workload, trace, *extra):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke",
               *extra]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done, result


def main():
    spec = gen_benchmark_json.load_spec()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(bench == gen_benchmark_json.benchmark_json(spec),
           "BENCHMARK.json matches spec.json")

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            done, result = run(workload, trace)
            expect(done.returncode == 0 and result is not None,
                   f"{label}: exits 0 with a result line")
            if result is None:
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result has exactly the four keys")
            expect(result["correct"] is True and result["attempted"] >= 1,
                   f"{label}: correct, with operations attempted")
            metrics = result["metrics"]
            bad = [m["name"] for m in bench[key]
                   if m["name"] not in metrics
                   or not isinstance(metrics[m["name"]]["value"], (int, float))
                   or not math.isfinite(metrics[m["name"]]["value"])
                   or metrics[m["name"]]["unit"] != m["unit"]]
            expect(not bad, f"{label}: all {len(bench[key])} metrics emitted, "
                            f"finite, with units {bad[:5] if bad else ''}")
            expect(set(metrics) == {m["name"] for m in bench[key]},
                   f"{label}: no metrics beyond the {key} list")

    done, result = run("bst-readdom", 0, "--break-size-model")
    expect(done.returncode == 1 and result is not None
           and result["correct"] is False,
           "broken size model: exits 1 with correct false")
    expect("check failed: MP.size_model" in done.stderr,
           "broken size model: the size_model check is named")

    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
