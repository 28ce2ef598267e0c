#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1-10 --seconds 20 [--workloads oos-corr,cli]

Runs ``run.py --trace 0`` once per seed and workload, one run at a time,
and prints for each metric the median and the quartile spread
(Q3 - Q1) / median, with quartiles as ``statistics.quantiles(values, n=4)``
gives them, next to the metric's bound from ``BENCHMARK.json``. The share
of failed operations is printed too. All runs are saved to
``perfbench/out/spread-<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--label", default="latest")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = {}
    for w in args.workloads.split(","):
        runs[w] = []
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed",
                 str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                print(f"{w} seed {seed}: run failed (exit {proc.returncode})\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            runs[w].append({"seed": seed, **result})
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    print()
    print(f"{'workload':<18} {'metric':<12} {'median':>10} {'spread':>7} {'bound':>6}  failed")
    for w, rs in runs.items():
        share = sorted({r["failed"] / r["attempted"] for r in rs})
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in rs]
            print(f"{w:<18} {name:<12} {statistics.median(values):>10.4g} "
                  f"{spread(values):>7.3f} {bound:>6}  {share}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"spread-{args.label}.json"), "w") as fh:
        json.dump(runs, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
