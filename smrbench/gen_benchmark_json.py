#!/usr/bin/env python3
"""Write BENCHMARK.json at the repository root from smrbench/spec.json.

    python3 smrbench/gen_benchmark_json.py          # write it
    python3 smrbench/gen_benchmark_json.py --check  # exit 1 if it differs

spec.json is the one place the benchmark is defined: it carries, besides
what BENCHMARK.json lists, each workload's parameters and, for each
per-layer metric, the end-to-end metric and workload it should move.
'<S>' in a metric name expands to one metric per scheme.
"""
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_spec():
    return json.loads((HERE / "spec.json").read_text())


def expand(name, schemes):
    return [name.replace("<S>", s) for s in schemes] if "<S>" in name else [name]


def benchmark_json(spec):
    schemes = spec["schemes"]
    return {
        "command": spec["command"],
        "paths": spec["paths"],
        "run_seconds": spec["run_seconds"],
        "workloads": [{"name": w["name"], "why": w["why"]} for w in spec["workloads"]],
        "end_to_end": [
            {"name": n, "unit": m["unit"], "better": m["better"], "bound": m["bound"]}
            for m in spec["end_to_end"]
            for n in expand(m["name"], schemes)
        ],
        "per_layer": [
            {"name": n, "unit": m["unit"], "better": m["better"]}
            for m in spec["per_layer"]
            for n in expand(m["name"], schemes)
        ],
    }


def render(spec):
    return json.dumps(benchmark_json(spec), indent=2) + "\n"


def main():
    text = render(load_spec())
    target = ROOT / "BENCHMARK.json"
    if sys.argv[1:] == ["--check"]:
        if not target.is_file() or target.read_text() != text:
            print("BENCHMARK.json is out of date with smrbench/spec.json", file=sys.stderr)
            return 1
        return 0
    target.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
