#!/usr/bin/env python3
"""Benchmark of the metricdepth package: one workload per run.

Run from the root of a source checkout (the directory holding ``src/``):

    python3 perfbench/run.py --workload oos-corr --seed 1 --seconds 20 --trace 0

Workloads: sim-corr-insample, oos-corr, permtest-hist, cli (see README.md).
The run sets up the workload's inputs from ``--seed``, runs whole rounds of
its operations in a closed loop until ``--seconds`` have passed, checks
every output against an independent computation, and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (setup_s, ops_per_s,
op_p50_s, peak_rss_mb). With ``--trace 1`` the run wraps each layer's
public functions, alternates untraced and traced rounds, and reports the
per-layer metrics plus the tracing overhead. A result file with the
machine facts is written under ``perfbench/out/``. Exit code 0 on success,
1 when a check fails, 2 when the checkout holds no ``metricdepth`` sources.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("sim-corr-insample", "oos-corr", "permtest-hist", "cli")
SETUP_REPEATS = 5


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _pin_threads():
    # at most nproc (and at most two) BLAS threads, here and in CLI children
    threads = str(min(2, os.cpu_count() or 1))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    os.environ["PYTHONPATH"] = SRC
    return int(threads)


def _fresh_seconds(code):
    """Wall time of a fresh interpreter running ``code``, and its output."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=60)
    return time.perf_counter() - start, proc.stdout


def _import_seconds():
    """``import metricdepth`` timed inside a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import metricdepth; "
            "print(time.perf_counter() - t)")
    return float(_fresh_seconds(code)[1])


def machine_facts(threads):
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "blas_threads": threads,
    }


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _run_round(workload, round_index, tracer, first_op, outputs, errors):
    """Run one round; returns (op seconds of completed ops, ops failed)."""
    times, failed = [], 0
    for k, (label, op) in enumerate(workload.ops(round_index)):
        if tracer is not None:
            tracer.op = first_op + k
        start = time.perf_counter()
        try:
            out = op()
        except Exception as exc:  # an operation that fails is counted, not fatal
            failed += 1
            errors.append(f"{label}: {type(exc).__name__}: {exc}")
            continue
        times.append(time.perf_counter() - start)
        outputs.append((label, out))
    if tracer is not None:
        tracer.op = -1
    return times, failed


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "metricdepth", "__init__.py")):
        print(f"error: no metricdepth sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    threads = _pin_threads()
    sys.path.insert(0, SRC)

    # --- set-up: import, inputs, warm-up -------------------------------------
    setup_start = start = time.perf_counter()
    import metricdepth
    import metricdepth.cli  # noqa: F401  (the traced run wraps its functions)
    import_samples = [time.perf_counter() - start]
    sys.path.insert(0, HERE)
    import oracle
    import tracing
    import workloads

    if not metricdepth.__file__.startswith(SRC):
        print(f"error: imported metricdepth from {metricdepth.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    # fresh interpreters also compile the package's bytecode once
    import_samples += [_import_seconds() for _ in range(SETUP_REPEATS - 1)]

    workload = workloads.WORKLOADS[args.workload]()
    tracer = None
    metrics = {}
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(metricdepth)
        if isinstance(workload, workloads.Cli):
            workload.in_process = True
        startup = [_fresh_seconds("import metricdepth.cli")[0]
                   for _ in range(SETUP_REPEATS)] if args.workload == "cli" else [0.0]
        metrics["cli.startup_s"] = (statistics.median(startup), "s")
        tracer.enabled = True
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    setup_samples = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        workload.setup(metricdepth, args.seed, workdir)
        setup_samples.append(time.perf_counter() - t)
    setup_s = statistics.median(import_samples) + statistics.median(setup_samples)
    if tracer is not None:
        tracer.enabled = False

    # --- timed phase: whole rounds in a closed loop ---------------------------
    outputs, errors = [], []
    op_times, untraced_times = [], []
    attempted = failed = rounds = 0
    phase_start = time.perf_counter()
    # another round starts only while it is expected to end nearer to the
    # target length than stopping now would
    while rounds < workload.MIN_ROUNDS or (
            time.perf_counter() - phase_start) * (1 + 0.5 / rounds) < args.seconds:
        # a traced run repeats each round untraced and traced, alternating
        # which goes first so that warm-up favours neither
        kinds = (None,) if tracer is None else (False, True) if rounds % 2 == 0 else (True, False)
        for traced in kinds:
            if traced:
                tracer.enabled = True
            times, bad = _run_round(workload, rounds, tracer if traced else None, attempted,
                                    outputs, errors)
            if traced:
                tracer.enabled = False
            (untraced_times if traced is False else op_times).extend(times)
            attempted += len(times) + bad
            failed += bad
        rounds += 1
    wall = time.perf_counter() - phase_start
    peak_rss_mb = _peak_rss_mb()
    check_start = time.perf_counter()

    # --- checks ---------------------------------------------------------------
    correct, problem = True, None
    try:
        if outputs:
            workload.check(outputs)
    except oracle.CheckFailed as exc:
        correct, problem = False, str(exc)
    phases = {"setup": phase_start - setup_start, "timed": wall,
              "check": time.perf_counter() - check_start}

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(op_times) / wall, "1/s"),
            "op_p50_s": (statistics.median(op_times) if op_times else wall, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics.update(tracing.summarize(tracer.spans, len(op_times)))
        traced = statistics.median(op_times) if op_times else 0.0
        untraced = statistics.median(untraced_times) if untraced_times else 0.0
        metrics["trace.op_p50_s"] = (traced, "s")
        metrics["trace.untraced_op_p50_s"] = (untraced, "s")
        metrics["trace.overhead_s"] = (traced - untraced, "s")

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "machine": machine_facts(threads), "rounds": rounds,
                   "phase_seconds": phases, "op_seconds": op_times, "errors": errors,
                   "check_failure": problem, "result": result}, fh, indent=1)
    if tracer is not None:
        with open(stem + "-spans.json", "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "tag"],
                       "spans": tracer.spans}, fh)
    shutil.rmtree(workdir, ignore_errors=True)
    for line in errors:
        print(f"failed operation: {line}", file=sys.stderr)
    if problem:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
