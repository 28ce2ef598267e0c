"""Command-line front-end.

Subcommands wire the library modules to stable file formats:

* ``dist``            objects JSON -> distance-matrix CSV
* ``depth``           objects JSON or distance CSV -> per-object depths
* ``deepest``         in-sample or out-of-sample deepest object
* ``simulate-corr``   replicated correlation-matrix location experiment
* ``simulate-sphere`` replicated hypersphere location experiment
* ``permtest``        two-group permutation test on a labeled dataset
* ``swap-test``       label-swap contamination experiment

Every command is a pure function of its input files, flags, and seed;
repeated runs produce byte-identical reports (timing fields are ``null``
unless ``--timings`` is given). Exit codes: 0 success, 2 usage/validation
error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .core import read_distance_csv, write_distance_csv
from .deepest import OptimizerConfig, deepest_in_sample, deepest_out_of_sample
from .depths import DepthMethod, DepthReport, depth_values, mod3_subsample_state
from .errors import InvalidArgumentError, NumericFailureError
from .inference import label_swap_experiment, permutation_test
from .reports import dump_report, envelope
from .simulation import (
    CorrSimConfig,
    SphereSimConfig,
    run_location_experiment,
)
from .spaces import distance_matrix, load_histogram_csv, load_objects, object_to_dict

USAGE_EXIT = 2
NUMERIC_EXIT = 3

_METHOD_HELP = "depth method: MOD3, MOD2, MLD, MSD, or MHD"


def _parse_methods(text: str) -> list[DepthMethod]:
    return [DepthMethod.parse(part) for part in text.split(",") if part]


def _load_dataset(path: str):
    if str(path).endswith(".csv"):
        return load_histogram_csv(path)
    return load_objects(path)


def _emit(report: dict, out: str | None) -> None:
    if out:
        dump_report(report, out)
    else:
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write the JSON report here (default: stdout)")
    p.add_argument("--timings", action="store_true",
                   help="include wall-time fields (breaks byte-reproducibility)")


def _add_out_of_sample(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out-of-sample", action="store_true",
                   help="optimize over Cholesky coordinates (correlation matrices only)")
    p.add_argument("--tsh", type=float, default=0.9,
                   help="PCA explained-variance threshold (default 0.9)")
    p.add_argument("--optimizer", choices=["simplex", "lbfgs"], default="simplex",
                   help="box optimizer (default simplex)")
    p.add_argument("--starts", type=int, default=5,
                   help="number of top in-sample starts (default 5)")
    p.add_argument("--halfwidth", type=float, default=0.05,
                   help="box half-width per PCA coordinate (default 0.05)")
    p.add_argument("--max-evals", type=int, default=None,
                   help="objective evaluation budget per start (default 500 x dimension)")


def _optimizer_from_args(args) -> OptimizerConfig:
    algorithm = {"simplex": "simplex-box", "lbfgs": "quasi-newton-box"}[args.optimizer]
    return OptimizerConfig(algorithm=algorithm, half_width=args.halfwidth,
                           max_evaluations=args.max_evals, starts=args.starts)


def cmd_dist(args) -> int:
    dm = distance_matrix(_load_dataset(args.infile))
    write_distance_csv(args.out, dm)
    return 0


def cmd_depth(args) -> int:
    method = DepthMethod.parse(args.method)
    if args.subsample is not None:
        if method is not DepthMethod.MOD3:
            raise InvalidArgumentError("--subsample applies to MOD3 only")
        if args.seed is None:
            raise InvalidArgumentError("--subsample requires --seed")
    if args.dm:
        dm = read_distance_csv(args.dm)
        config_input = {"dm": args.dm}
    else:
        if not args.infile:
            raise InvalidArgumentError("provide --in objects.json or --dm matrix.csv")
        objects = _load_dataset(args.infile)
        dm = distance_matrix(objects)
        config_input = {"in": args.infile, "metric": objects.metric}
    # the reported time covers the triple draw as well as the scoring
    start = time.perf_counter()
    if args.subsample is not None:
        dm = mod3_subsample_state(dm, args.subsample, args.seed)
    report = DepthReport(method, depth_values(dm, method), time.perf_counter() - start)
    payload = report.to_dict(with_timing=args.timings)
    if args.subsample is not None:
        payload["subsample"] = args.subsample
    config = {**config_input, "method": method.value, "seed": args.seed}
    if args.format == "csv":
        target = open(args.out, "w") if args.out else sys.stdout
        try:
            target.write("method,index,value\n")
            for i, v in enumerate(payload["values"]):
                target.write(f"{method.value},{i},{float(v)!r}\n")
        finally:
            if args.out:
                target.close()
    else:
        _emit(envelope("depth", config, payload), args.out)
    return 0


def cmd_deepest(args) -> int:
    method = DepthMethod.parse(args.method)
    if args.out_of_sample and args.seed is None:
        raise InvalidArgumentError("--out-of-sample requires --seed")
    objects = _load_dataset(args.infile)
    config = {"in": args.infile, "metric": objects.metric,
              "method": method.value, "out_of_sample": bool(args.out_of_sample)}
    if args.out_of_sample:
        cfg = _optimizer_from_args(args)
        # checks the object kind before computing the distance matrix
        result = deepest_out_of_sample(objects, method, tsh=args.tsh, cfg=cfg)
        config.update({"tsh": args.tsh, "optimizer": args.optimizer, "starts": args.starts,
                       "halfwidth": args.halfwidth, "max_evals": args.max_evals,
                       "seed": args.seed})
        payload = result.to_dict()
    else:
        result = deepest_in_sample(distance_matrix(objects), method)
        payload = result.to_dict()
        payload["object"] = object_to_dict(objects.items[result.index])
    _emit(envelope("deepest", config, payload), args.out)
    return 0


def _simulate(args, space: str) -> int:
    methods = _parse_methods(args.methods)
    if space == "corr":
        cfg = CorrSimConfig(p=args.p, n=args.n, eps=args.eps, reps=args.reps,
                            seed=args.seed, nu_bulk=args.nu_bulk, nu_out=args.nu_out)
        estimator = "out-of-sample" if args.out_of_sample else "in-sample"
        optimizer = _optimizer_from_args(args) if args.out_of_sample else None
        report = run_location_experiment(space, cfg, methods, estimator=estimator,
                                         optimizer=optimizer, tsh=args.tsh,
                                         baseline=args.baseline)
    else:
        cfg = SphereSimConfig(p=args.p, n=args.n, eps=args.eps, reps=args.reps,
                              seed=args.seed, lambda_bulk=args.lambda_bulk,
                              lambda_out=args.lambda_out)
        report = run_location_experiment(space, cfg, methods, baseline=args.baseline)
    if args.csv:
        report.write_tidy_csv(args.csv)
    payload = report.to_dict(with_timing=args.timings)
    _emit(envelope(f"simulate-{space}", payload.pop("config"), payload), args.out)
    return 0


def cmd_permtest(args) -> int:
    objects = _load_dataset(args.infile)
    method = DepthMethod.parse(args.method)
    report = permutation_test(objects, method, B=args.B, seed=args.seed,
                              corrected=args.pvalue_corrected)
    config = {"in": args.infile, "metric": objects.metric,
              "method": method.value, "B": args.B, "seed": args.seed,
              "pvalue_corrected": args.pvalue_corrected}
    _emit(envelope("permtest", config, report.to_dict()), args.out)
    return 0


def cmd_swap_test(args) -> int:
    objects = _load_dataset(args.infile)
    methods = _parse_methods(args.methods)
    report = label_swap_experiment(objects, methods, k=args.k, repeats=args.repeats,
                                   B=args.B, seed=args.seed, corrected=args.pvalue_corrected)
    config = {"in": args.infile, "metric": objects.metric,
              "methods": [m.value for m in methods], "k": args.k,
              "repeats": args.repeats, "B": args.B, "seed": args.seed,
              "pvalue_corrected": args.pvalue_corrected}
    _emit(envelope("swap-test", config, report.to_dict()), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metricdepth",
        description="Depth functions and deepest-object estimation for object data.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="objects JSON -> distance matrix CSV")
    p.add_argument("--in", dest="infile", required=True, help="objects JSON file")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("depth", help="per-object depths of a sample")
    p.add_argument("--in", dest="infile", help="objects JSON file")
    p.add_argument("--dm", help="precomputed distance-matrix CSV")
    p.add_argument("--method", required=True, help=_METHOD_HELP)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--subsample", type=int,
                   help="MOD3 only: average this many random triples per object")
    p.add_argument("--seed", type=int, help="seed (required with --subsample)")
    _add_common(p)
    p.set_defaults(func=cmd_depth)

    p = sub.add_parser(
        "deepest", help="deepest-object estimate",
        description="Deepest-object estimate. Distances are computed from the objects with "
                    "their space's metric. The in-sample MOD3 search on samples of more "
                    "than 22 objects may leave kernels unevaluated, and so does not check "
                    "every kernel radicand for metric violations.")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--method", required=True, help=_METHOD_HELP)
    _add_out_of_sample(p)
    p.add_argument("--seed", type=int,
                   help="required with --out-of-sample and recorded in the report; "
                        "the search itself is deterministic")
    _add_common(p)
    p.set_defaults(func=cmd_deepest)

    p = sub.add_parser("simulate-corr", help="correlation-matrix location experiment")
    p.add_argument("--p", type=int, required=True, help="matrix dimension")
    p.add_argument("--n", type=int, required=True, help="sample size")
    p.add_argument("--eps", type=float, required=True, help="outlier probability")
    p.add_argument("--reps", type=int, required=True, help="replication count")
    p.add_argument("--methods", required=True, help="comma-separated depth methods")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--nu-bulk", type=float, default=0.0, help="bulk log-mean (default 0)")
    p.add_argument("--nu-out", type=float, default=3.0, help="outlier log-mean (default 3)")
    p.add_argument("--baseline", action="store_true", help="add a random-pick column")
    _add_out_of_sample(p)
    p.add_argument("--csv", help="also write a tidy CSV (one row per replicate x method)")
    _add_common(p)
    p.set_defaults(func=lambda a: _simulate(a, "corr"))

    p = sub.add_parser("simulate-sphere", help="hypersphere location experiment")
    p.add_argument("--p", type=int, required=True, help="ambient dimension")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--methods", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--lambda-bulk", type=float, default=5.0, help="bulk mean (default 5)")
    p.add_argument("--lambda-out", type=float, default=-1.0, help="outlier mean (default -1)")
    p.add_argument("--baseline", action="store_true")
    p.add_argument("--csv", help="also write a tidy CSV")
    _add_common(p)
    p.set_defaults(func=lambda a: _simulate(a, "sphere"))

    p = sub.add_parser("permtest", help="two-group permutation test")
    p.add_argument("--in", dest="infile", required=True,
                   help="labeled dataset (JSON, or histogram CSV by extension)")
    p.add_argument("--method", required=True, help=_METHOD_HELP)
    p.add_argument("--B", type=int, default=500, help="permutations (default 500)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pvalue-corrected", action="store_true",
                   help="use the finite-sample (1+#)/(1+B) p-value")
    _add_common(p)
    p.set_defaults(func=cmd_permtest)

    p = sub.add_parser("swap-test", help="label-swap contamination experiment")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--methods", required=True, help="comma-separated depth methods")
    p.add_argument("--k", type=int, required=True, help="labels swapped per group")
    p.add_argument("--repeats", type=int, default=10, help="swap repetitions (default 10)")
    p.add_argument("--B", type=int, default=100, help="permutations per test (default 100)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pvalue-corrected", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_swap_test)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERIC_EXIT
    except (InvalidArgumentError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
