"""The benchmark's four workloads.

A workload makes its inputs from the benchmark seed in :meth:`setup`,
lists one round of operations in :meth:`ops` (the same operations every
round) and checks the outputs of every completed operation in
:meth:`check`, against :mod:`oracle`. Inputs of the program come only
from the seed; the program never sees the seed itself except where an
interface takes a seed argument (``gen_histogram_groups``, the CLI's
``--seed``), which then gets a number derived from it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np

import oracle

METHODS = ("MOD3", "MOD2", "MLD", "MSD", "MHD")


def _rng(seed, *key):
    return np.random.default_rng([seed, *key])


def _derived_seed(seed, *key):
    return int(_rng(seed, *key).integers(0, 2**31))


def _corr_sample(md, p, n, eps, rng):
    cfg = md.CorrSimConfig(p=p, n=n, eps=eps, reps=1, seed=0)
    return md.gen_correlation_sample(cfg, rng)[0]


def _mats(objects):
    return [np.asarray(o.entries) for o in objects.items]


def _check_pairs(n, rng, count):
    i = rng.integers(0, n, size=count)
    j = rng.integers(0, n, size=count)
    return [(int(a), int(b)) for a, b in zip(i, j) if a != b]


class SimCorrInsample:
    """One replicate of the correlation location study, in-sample."""

    name = "sim-corr-insample"
    P, N, EPS = 3, 140, 0.1
    MIN_ROUNDS = 1

    def setup(self, md, seed, workdir):
        self.md, self.seed = md, seed

    def ops(self, round_index):
        md, seed = self.md, self.seed

        def replicate():
            objects = _corr_sample(md, self.P, self.N, self.EPS, _rng(seed, 1, round_index))
            dm = md.distance_matrix(objects)
            return objects, dm, {m: md.deepest_in_sample(dm, md.DepthMethod(m)) for m in METHODS}

        return [("replicate", replicate)]

    def check(self, outputs):
        md = self.md
        for k, (_, (objects, dm, results)) in enumerate(outputs):
            d = dm.values
            what = f"replicate {k}"
            pairs = _check_pairs(len(d), _rng(self.seed, 9, k), 40)
            oracle.check_spd_distances(_mats(objects), d, pairs, f"{what} SPD distance")
            r = results["MOD3"]
            oracle.check_depth_values("MOD3", d, [r.index], [r.depth],
                                      f"{what} deepest object")
            for m in ("MLD", "MSD"):
                oracle.check_in_sample(m, d, results[m].index, results[m].depth, what)
            for m in ("MOD2", "MHD"):
                lo, hi = md.DepthMethod(m).value_range
                if not (0 <= results[m].index < len(d) and lo <= results[m].depth <= hi):
                    raise oracle.CheckFailed(f"{what} {m}: result out of range: {results[m]}")
        # the depth layer on its own input: all rows of a 16-object sub-sample
        objects, dm, _ = outputs[0][1]
        sub = dm.values[:16, :16]
        for m in ("MOD3", "MLD", "MSD"):
            values = md.depths.depth_values(sub, md.DepthMethod(m))
            oracle.check_depth_values(m, sub, list(range(16)), values, "sub-sample depth")
            r = md.deepest_in_sample(sub, md.DepthMethod(m))
            oracle.check_argmax(values, r.index, r.depth, f"sub-sample deepest {m}")


class OosCorr:
    """Out-of-sample deepest search, three depths times two optimizers."""

    name = "oos-corr"
    P, N, EPS, DATASETS = 4, 40, 0.1, 4
    OOS_METHODS = ("MOD3", "MLD", "MSD")
    ALGORITHMS = ("simplex-box", "quasi-newton-box")
    STARTS, MAX_EVALS, TSH = 3, 120, 0.9
    MIN_ROUNDS = 1

    def setup(self, md, seed, workdir):
        self.md, self.seed = md, seed
        self.data = []
        for d in range(self.DATASETS):
            objects = _corr_sample(md, self.P, self.N, self.EPS, _rng(seed, 2, d))
            self.data.append((objects, md.distance_matrix(objects)))

    def _config(self, algorithm):
        return self.md.OptimizerConfig(algorithm=algorithm, starts=self.STARTS,
                                       max_evaluations=self.MAX_EVALS)

    def ops(self, round_index):
        md = self.md
        out = []
        for d, (objects, dm) in enumerate(self.data):
            for m in self.OOS_METHODS:
                for alg in self.ALGORITHMS:
                    def search(objects=objects, dm=dm, m=m, alg=alg):
                        return md.deepest_out_of_sample(objects, md.DepthMethod(m), tsh=self.TSH,
                                                        cfg=self._config(alg), dm=dm)
                    out.append(((d, m, alg), search))
        return out

    def check(self, outputs):
        md = self.md
        for d, (objects, dm) in enumerate(self.data):
            for m in self.OOS_METHODS:
                values = md.depths.depth_values(dm, md.DepthMethod(m))
                oracle.check_depth_values(m, dm.values, list(range(len(values))), values,
                                          f"dataset {d} depth")
        seen = {}
        for (d, m, alg), result in outputs:
            objects, dm = self.data[d]
            what = f"dataset {d} {m} {alg}"
            if (d, m, alg) in seen:
                if result.to_dict() != seen[(d, m, alg)]:
                    raise oracle.CheckFailed(f"{what}: a repeated search gave another result")
                continue
            seen[(d, m, alg)] = result.to_dict()
            check_out_of_sample(md, objects, dm, m, self.STARTS, self.TSH, result, what)


def check_out_of_sample(md, objects, dm, method, starts, tsh, result, what):
    """Out-of-sample result: valid object, right depth, no worse than the starts."""
    mats = _mats(objects)
    if result.source != "out-of-sample" or result.object is None:
        raise oracle.CheckFailed(f"{what}: no out-of-sample object: {result}")
    obj = np.asarray(result.object.entries)
    q = md.query_distances(result.object, objects)
    oracle.check_spd_query(mats, obj, q, f"{what} query distances")
    ranked = np.argsort(-md.depths.depth_values(dm, md.DepthMethod(method)), kind="stable")
    start_qs = []
    for s in oracle.reconstructed_starts(mats, [int(s) for s in ranked[:starts]], tsh):
        try:
            start_qs.append(md.query_distances(md.CorrelationMatrix(s), objects))
        except (md.InvalidArgumentError, md.NotPositiveDefiniteError):
            pass  # the search scores an undecodable start below every depth
    oracle.check_out_of_sample(method, dm.values, obj, q, result.depth, start_qs, what)


class PermtestHist:
    """Permutation tests on two groups of histograms, one per depth."""

    name = "permtest-hist"
    N1, N2, BINS, SHIFT, B, DATASETS = 25, 25, 15, 1.0, 100, 2
    MIN_ROUNDS = 1

    def setup(self, md, seed, workdir):
        self.md, self.seed = md, seed
        self.data = [md.gen_histogram_groups(self.N1, self.N2, self.SHIFT, self.BINS,
                                             seed=_derived_seed(seed, 3, d))
                     for d in range(self.DATASETS)]
        self.perm_seeds = [_derived_seed(seed, 4, d) for d in range(self.DATASETS)]

    def ops(self, round_index):
        md = self.md
        out = []
        for d, objects in enumerate(self.data):
            for m in METHODS:
                def test(objects=objects, m=m, s=self.perm_seeds[d]):
                    return md.permutation_test(objects, md.DepthMethod(m), B=self.B, seed=s)
                out.append(((d, m), test))
        return out

    def check(self, outputs):
        md = self.md
        dms = []
        for d, objects in enumerate(self.data):
            dm = md.distance_matrix(objects)
            oracle.check_w2_distances([(h.edges, h.masses) for h in objects.items], dm.values,
                                      f"dataset {d} Wasserstein distance")
            dms.append(dm.values)
        seen = {}
        for (d, m), report in outputs:
            what = f"dataset {d} {m} permutation test"
            if (d, m) in seen:
                if report.to_dict() != seen[(d, m)]:
                    raise oracle.CheckFailed(f"{what}: a repeated test gave another report")
                continue
            seen[(d, m)] = report.to_dict()
            if len(report.t_permuted) != self.B:
                raise oracle.CheckFailed(f"{what}: {len(report.t_permuted)} draws, not {self.B}")
            oracle.check_p_value(report.p_value, report.t_observed, report.t_permuted,
                                 report.corrected, what)
            oracle.check_statistics(report.t_observed, report.t_permuted, dms[d], what)
            if m in oracle.DEPTH_OF_QUERY:
                oracle.check_observed_statistic(m, dms[d], self.data[d].labels,
                                                report.t_observed, what)
        # a second run with the same seed gives an identical report
        (d, m), report = outputs[0]
        again = md.permutation_test(self.data[d], md.DepthMethod(m), B=self.B,
                                    seed=self.perm_seeds[d])
        if again.to_dict() != report.to_dict():
            raise oracle.CheckFailed(f"dataset {d} {m}: a second run gave another report")


def write_histogram_csv(objects, path):
    with open(path, "w") as fh:
        for h, label in zip(objects.items, objects.labels):
            cols = [label]
            for e, m in zip(h.edges[:-1], h.masses):
                cols += [repr(float(e)), repr(float(m))]
            cols.append(repr(float(h.edges[-1])))
            fh.write(",".join(cols) + "\n")


class Cli:
    """``metricdepth`` commands on input files written at set-up."""

    name = "cli"
    P, N_MAIN, N_SMALL, EPS = 3, 80, 30, 0.1
    HIST, B = (20, 20, 15, 1.0), 60
    OOS_STARTS, OOS_MAX_EVALS = 2, 100
    MIN_ROUNDS = 2  # the second round is compared byte for byte with the first
    in_process = False  # the traced run calls metricdepth.cli.main in-process

    def setup(self, md, seed, workdir):
        self.md, self.seed, self.dir = md, seed, workdir
        os.makedirs(workdir, exist_ok=True)
        f = self.path
        self.main = _corr_sample(md, self.P, self.N_MAIN, self.EPS, _rng(seed, 5, 0))
        self.small = _corr_sample(md, self.P, self.N_SMALL, self.EPS, _rng(seed, 5, 1))
        md.dump_objects(self.main, f("corr_main.json"))
        md.dump_objects(self.small, f("corr_small.json"))
        md.write_distance_csv(f("dm_main.csv"), md.distance_matrix(self.main))
        n1, n2, bins, shift = self.HIST
        self.hist = md.gen_histogram_groups(n1, n2, shift, bins, seed=_derived_seed(seed, 5, 2))
        write_histogram_csv(self.hist, f("hist.csv"))
        self.cli_seed = str(_derived_seed(seed, 5, 3))
        m_all = self.N_SMALL * (self.N_SMALL - 1) * (self.N_SMALL - 2) // 6
        self.commands = [
            ("dist", ["dist", "--in", f("corr_main.json"), "--out", f("out_dist.csv")]),
            ("depth-dm", ["depth", "--dm", f("dm_main.csv"), "--method", "MOD3",
                          "--out", f("out_depth_dm.json")]),
            ("depth-in", ["depth", "--in", f("corr_main.json"), "--method", "MLD",
                          "--format", "csv", "--out", f("out_depth_in.csv")]),
            ("depth-subsample", ["depth", "--in", f("corr_small.json"), "--method", "MOD3",
                                 "--subsample", str(m_all), "--seed", self.cli_seed,
                                 "--out", f("out_depth_sub.json")]),
            ("deepest", ["deepest", "--in", f("corr_main.json"), "--method", "MOD3",
                         "--out", f("out_deepest.json")]),
            ("deepest-oos", ["deepest", "--in", f("corr_small.json"), "--method", "MOD3",
                             "--out-of-sample", "--seed", self.cli_seed,
                             "--starts", str(self.OOS_STARTS),
                             "--max-evals", str(self.OOS_MAX_EVALS),
                             "--out", f("out_deepest_oos.json")]),
            ("permtest", ["permtest", "--in", f("hist.csv"), "--method", "MOD3",
                          "--B", str(self.B), "--seed", self.cli_seed,
                          "--out", f("out_permtest.json")]),
        ]

    def path(self, name):
        return os.path.join(self.dir, name)

    def ops(self, round_index):
        return [(label, lambda argv=argv: self._run(argv)) for label, argv in self.commands]

    def _run(self, argv):
        out = argv[argv.index("--out") + 1]
        if self.in_process:
            code = self.md.cli.main(argv)
            stderr = ""
        else:
            proc = subprocess.run([sys.executable, "-m", "metricdepth.cli", *argv],
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                                  timeout=60)
            code, stderr = proc.returncode, proc.stderr
        if code != 0:
            raise RuntimeError(f"metricdepth {argv[0]} exited {code}: {stderr.strip()}")
        with open(out, "rb") as fh:
            return fh.read()

    def check(self, outputs):
        first = {}
        for label, data in outputs:
            if label in first:
                if data != first[label]:
                    raise oracle.CheckFailed(f"cli {label}: a repeated command wrote other bytes")
            else:
                first[label] = data
        md, f = self.md, self.path
        mats = _mats(self.main)
        d = np.loadtxt(f("dm_main.csv"), delimiter=",", ndmin=2)
        n = len(mats)
        if "dist" in first:
            want = np.array([[oracle.spd_distance(a, b) if i != j else 0.0
                              for j, b in enumerate(mats)] for i, a in enumerate(mats)])
            oracle.check_distance_csv(first["dist"].decode(), want, "cli dist")
        depth_dm = None
        if "depth-dm" in first:
            depth_dm = json.loads(first["depth-dm"])["values"]
            rows = sorted({0, n - 1, int(np.argmax(depth_dm)), int(np.argmin(depth_dm))})
            oracle.check_depth_values("MOD3", d, rows, [depth_dm[r] for r in rows],
                                      "cli depth --dm")
        if "depth-in" in first:
            oracle.check_depth_csv(first["depth-in"].decode(), "MLD", d, "cli depth --in")
        if "depth-subsample" in first:
            got = json.loads(first["depth-subsample"])["values"]
            small_dm = md.distance_matrix(self.small)
            exact = md.depths.depth_values(small_dm, md.DepthMethod.MOD3)
            if [float(x) for x in exact] != got:
                raise oracle.CheckFailed("cli depth --subsample C(n,3): values differ from the "
                                         "full MOD3 depths")
            oracle.check_depth_values("MOD3", small_dm.values, list(range(len(got))), got,
                                      "cli depth --subsample")
        if "deepest" in first:
            report = json.loads(first["deepest"])
            if depth_dm is None:
                depth_dm = md.depths.depth_values(md.distance_matrix(self.main),
                                                  md.DepthMethod.MOD3)
            oracle.check_argmax(depth_dm, report["index"], report["depth"], "cli deepest")
            if not np.array_equal(report["object"]["rows"], mats[report["index"]]):
                raise oracle.CheckFailed("cli deepest: object is not the sample object at index")
        if "deepest-oos" in first:
            report = json.loads(first["deepest-oos"])
            result = md.DeepestResult(depth=report["depth"], source=report["source"],
                                      object=md.CorrelationMatrix(report["object"]["rows"]),
                                      evaluations=report["evaluations"])
            check_out_of_sample(md, self.small, md.distance_matrix(self.small), "MOD3",
                                self.OOS_STARTS, 0.9, result, "cli deepest --out-of-sample")
        if "permtest" in first:
            report = json.loads(first["permtest"])
            oracle.check_p_value(report["p_value"], report["t_observed"], report["t_permuted"],
                                 report["corrected"], "cli permtest")
            hist_dm = md.distance_matrix(self.hist).values
            oracle.check_statistics(report["t_observed"], report["t_permuted"], hist_dm,
                                    "cli permtest")
            oracle.check_observed_statistic("MOD3", hist_dm, self.hist.labels,
                                            report["t_observed"], "cli permtest")


WORKLOADS = {w.name: w for w in (SimCorrInsample, OosCorr, PermtestHist, Cli)}
