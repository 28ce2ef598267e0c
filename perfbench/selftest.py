#!/usr/bin/env python3
"""Show that every output check passes on program output and fails on a corruption.

    python3 perfbench/selftest.py

Run from the root of a source checkout. Each case computes a real program
output on a small input, checks that the benchmark's check accepts it, then
corrupts it (a perturbed depth, a p-value one hit off, a swapped deepest
index, an edited CSV entry, ...) and checks that the check rejects it.
Exit code 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402

import metricdepth as md  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

OUT = os.path.join(HERE, "out", "selftest")


def _expect(name, fn, should_fail, failures):
    try:
        fn()
        failed = False
    except oracle.CheckFailed:
        failed = True
    ok = failed == should_fail
    print(f"{'ok  ' if ok else 'FAIL'} {'rejects' if should_fail else 'accepts'} {name}")
    if not ok:
        failures.append(name)


def case(name, good, bad, failures):
    _expect(name, good, False, failures)
    _expect(name + " (corrupted)", bad, True, failures)


def main() -> int:
    os.makedirs(OUT, exist_ok=True)
    failures = []
    rng = np.random.default_rng([7, 7])
    corr = workloads._corr_sample(md, 3, 18, 0.1, rng)
    mats = workloads._mats(corr)
    dm = md.distance_matrix(corr)
    d = dm.values
    n = len(d)
    rows = list(range(n))

    # distances
    pairs = [(0, 1), (2, 5), (7, 3)]
    case("SPD distances", lambda: oracle.check_spd_distances(mats, d, pairs),
         lambda: oracle.check_spd_distances(mats, d * (1 + 1e-6), pairs), failures)
    hists = md.gen_histogram_groups(6, 6, 1.0, 15, seed=3)
    hd = md.distance_matrix(hists).values
    hh = [(h.edges, h.masses) for h in hists.items]
    bad_hd = hd.copy()
    bad_hd[2, 4] = bad_hd[4, 2] = hd[2, 4] * 1.001
    case("Wasserstein distances", lambda: oracle.check_w2_distances(hh, hd),
         lambda: oracle.check_w2_distances(hh, bad_hd), failures)
    csv_path = os.path.join(OUT, "dm.csv")
    md.write_distance_csv(csv_path, dm)
    with open(csv_path) as fh:
        good_csv = fh.read()
    lines = good_csv.splitlines()
    cells = lines[3].split(",")
    cells[5] = repr(float(cells[5]) * 1.0001)
    lines[3] = ",".join(cells)
    bad_csv = "\n".join(lines) + "\n"
    want = np.array([[oracle.spd_distance(a, b) if i != j else 0.0 for j, b in enumerate(mats)]
                     for i, a in enumerate(mats)])
    case("distance CSV", lambda: oracle.check_distance_csv(good_csv, want),
         lambda: oracle.check_distance_csv(bad_csv, want), failures)

    # depths
    for m in ("MOD3", "MLD", "MSD"):
        values = md.depths.depth_values(dm, md.DepthMethod(m))
        bad = values.copy()
        bad[4] += 1.0 / (n * (n - 1) // 2) if m == "MLD" else values[4] * 1e-7
        case(f"{m} depths", lambda v=values, m=m: oracle.check_depth_values(m, d, rows, v),
             lambda v=bad, m=m: oracle.check_depth_values(m, d, rows, v), failures)
        r = md.deepest_in_sample(dm, md.DepthMethod(m))
        other = int(np.argmin(values))
        case(f"{m} deepest index", lambda r=r, v=values: oracle.check_argmax(v, r.index, r.depth),
             lambda v=values: oracle.check_argmax(v, other, v[other]), failures)
        if m != "MOD3":
            case(f"{m} in-sample deepest",
                 lambda r=r, m=m: oracle.check_in_sample(m, d, r.index, r.depth),
                 lambda m=m: oracle.check_in_sample(m, d, other, values[other]), failures)
    # depth CSV as the CLI writes it, with one value edited
    mld = md.depths.depth_values(dm, md.DepthMethod.MLD)
    text = "method,index,value\n" + "".join(f"MLD,{i},{float(v)!r}\n" for i, v in enumerate(mld))
    edited = text.replace(f"MLD,3,{float(mld[3])!r}", f"MLD,3,{float(mld[3]) + 0.01!r}")
    case("depth CSV", lambda: oracle.check_depth_csv(text, "MLD", d),
         lambda: oracle.check_depth_csv(edited, "MLD", d), failures)

    # permutation test
    report = md.permutation_test(hists, md.DepthMethod.MOD3, B=40, seed=2)
    b = report.B
    case("p-value", lambda: oracle.check_p_value(report.p_value, report.t_observed,
                                                 report.t_permuted),
         lambda: oracle.check_p_value(report.p_value + 1 / b, report.t_observed,
                                      report.t_permuted), failures)
    corrected = md.permutation_test(hists, md.DepthMethod.MOD3, B=40, seed=2, corrected=True)
    case("corrected p-value",
         lambda: oracle.check_p_value(corrected.p_value, corrected.t_observed,
                                      corrected.t_permuted, True),
         lambda: oracle.check_p_value(corrected.p_value - 1 / (b + 1), corrected.t_observed,
                                      corrected.t_permuted, True), failures)
    case("permutation statistics",
         lambda: oracle.check_statistics(report.t_observed, report.t_permuted, hd),
         lambda: oracle.check_statistics(report.t_observed * (1 + 1e-9), report.t_permuted, hd),
         failures)
    labels = np.asarray(hists.labels)
    wrong = float(hd[np.flatnonzero(labels == "A")[0], np.flatnonzero(labels == "B")[-1]])
    if wrong == report.t_observed:
        wrong = float(hd[np.flatnonzero(labels == "A")[1], np.flatnonzero(labels == "B")[-2]])
    case("observed statistic",
         lambda: oracle.check_observed_statistic("MOD3", hd, labels, report.t_observed),
         lambda: oracle.check_observed_statistic("MOD3", hd, labels, wrong), failures)

    # out-of-sample result
    cfg = md.OptimizerConfig(starts=2, max_evaluations=60)
    result = md.deepest_out_of_sample(corr, md.DepthMethod.MOD3, cfg=cfg, dm=dm)
    check = workloads.check_out_of_sample
    case("out-of-sample result",
         lambda: check(md, corr, dm, "MOD3", 2, 0.9, result, "oos"),
         lambda: check(md, corr, dm, "MOD3", 2, 0.9,
                       md.DeepestResult(depth=result.depth * 0.9, source=result.source,
                                        object=result.object), "oos"), failures)
    mod3 = md.depths.depth_values(dm, md.DepthMethod.MOD3)
    lowest = md.DeepestResult(depth=float(mod3.min()), source="out-of-sample",
                              object=corr.items[int(mod3.argmin())])
    _expect("out-of-sample result below its starts",
            lambda: check(md, corr, dm, "MOD3", 2, 0.9, lowest, "oos"), True, failures)
    singular = np.array([[1.0, 1.0], [1.0, 1.0]])
    _expect("non-positive-definite object", lambda: oracle.check_correlation(singular), True,
            failures)

    # CLI outputs must repeat byte for byte
    cli = workloads.Cli()
    _expect("changed bytes on a repeated command",
            lambda: cli.check([("dist", b"1.0\n"), ("dist", b"1.5\n")]), True, failures)

    # BENCHMARK.json names exactly the metrics a run reports
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = [m["name"] for m in bench["per_layer"]]
    reported = (["cli.startup_s"] + tracing.SUMMARY_METRICS
                + ["trace.op_p50_s", "trace.untraced_op_p50_s", "trace.overhead_s"])
    same = sorted(declared) == sorted(reported)
    print(f"{'ok  ' if same else 'FAIL'} per-layer metrics match BENCHMARK.json")
    if not same:
        failures.append("per-layer metric list")

    print(f"\n{len(failures)} unexpected outcome(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
