#!/usr/bin/env python3
"""Traced run of every workload: per-layer metrics and tracing overhead.

    python3 perfbench/layers.py --seed 1 --seconds 20 [--workloads oos-corr,cli]

Runs ``run.py --trace 1`` for each workload, one at a time, and prints the
layer metrics that apply (nonzero) with their units. The traced run
alternates untraced and traced rounds of the same operations, so its
overhead is the difference of the two median operation times, printed as
``trace.overhead_s`` and as a share of the untraced median. All results
are saved to ``perfbench/out/layers-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = p.parse_args(argv)
    results = {}
    for w in args.workloads.split(","):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{w}: traced run failed (exit {proc.returncode})\n{proc.stderr}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        results[w] = result
        m = result["metrics"]
        print(f"== {w}: {result['attempted']} operations, {result['failed']} failed, "
              f"correct={result['correct']}")
        for name, v in m.items():
            if v["value"] and not name.startswith("trace."):
                print(f"  {name:<40} {v['value']:>12.6g} {v['unit']}")
        base = m["trace.untraced_op_p50_s"]["value"]
        over = m["trace.overhead_s"]["value"]
        print(f"  overhead: median op {m['trace.op_p50_s']['value']:.4g} s traced, "
              f"{base:.4g} s untraced, difference {over:+.4g} s "
              f"({over / base:+.1%})" if base else "  overhead: no untraced operations")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"layers-seed{args.seed}.json"), "w") as fh:
        json.dump(results, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
