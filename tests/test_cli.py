"""Tests for the command-line front-end, driven through ``main(argv)``."""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import full_pass_tables, nonmetric_dm
from metricdepth import cli, deepest, depths, inference, simulation
from metricdepth.cli import main
from metricdepth.core import write_distance_csv
from metricdepth.inference import statistic_from_dm
from metricdepth.seeding import PERMUTATION_TAG, child_rng
from metricdepth.simulation import CorrSimConfig, gen_correlation_sample, gen_histogram_groups
from metricdepth.spaces import distance_matrix, dump_objects, load_objects

OUT = "{out}"

# every command writes its report to OUT; "corr", "dm" and "hist" name the
# input files of the ``files`` fixture
COMMANDS = {
    "dist": ["dist", "--in", "corr", "--out", OUT],
    "depth-dm-json": ["depth", "--dm", "dm", "--method", "MOD3", "--out", OUT],
    "depth-dm-mod2": ["depth", "--dm", "dm", "--method", "MOD2", "--out", OUT],
    "depth-in-csv": ["depth", "--in", "corr", "--method", "MLD", "--format", "csv",
                     "--out", OUT],
    "depth-subsample": ["depth", "--in", "corr", "--method", "MOD3", "--subsample", "20",
                        "--seed", "3", "--out", OUT],
    "deepest": ["deepest", "--in", "corr", "--method", "MSD", "--out", OUT],
    "deepest-hist-mod3": ["deepest", "--in", "hist", "--method", "MOD3", "--out", OUT],
    "deepest-oos": ["deepest", "--in", "corr", "--method", "MLD", "--out-of-sample",
                    "--seed", "2", "--starts", "2", "--max-evals", "20", "--out", OUT],
    "deepest-oos-lbfgs": ["deepest", "--in", "corr", "--method", "MLD", "--out-of-sample",
                          "--optimizer", "lbfgs", "--seed", "2", "--starts", "2",
                          "--max-evals", "20", "--out", OUT],
    "deepest-oos-mod3": ["deepest", "--in", "corr", "--method", "MOD3", "--out-of-sample",
                         "--seed", "2", "--starts", "3", "--max-evals", "30", "--out", OUT],
    "simulate-corr": ["simulate-corr", "--p", "3", "--n", "8", "--eps", "0.1", "--reps", "2",
                      "--methods", "MOD3,MLD", "--seed", "1", "--out", OUT],
    "simulate-sphere": ["simulate-sphere", "--p", "3", "--n", "8", "--eps", "0.1",
                        "--reps", "2", "--methods", "MSD,MHD", "--seed", "1", "--out", OUT],
    "permtest": ["permtest", "--in", "hist", "--method", "MLD", "--B", "10", "--seed", "4",
                 "--out", OUT],
    "permtest-mod2": ["permtest", "--in", "hist", "--method", "MOD2", "--B", "10", "--seed", "4",
                      "--out", OUT],
    "permtest-mod3": ["permtest", "--in", "hist", "--method", "MOD3", "--B", "10", "--seed", "4",
                      "--out", OUT],
    "permtest-mhd": ["permtest", "--in", "hist", "--method", "MHD", "--B", "10", "--seed", "4",
                     "--out", OUT],
    "swap-test": ["swap-test", "--in", "hist", "--methods", "MLD,MSD", "--k", "1",
                  "--repeats", "2", "--B", "5", "--seed", "5", "--out", OUT],
}


@pytest.fixture
def files(tmp_path):
    paths = {key: str(tmp_path / name) for key, name in [
        ("corr", "corr.json"), ("dm", "dm.csv"), ("hist", "hist.json"),
        ("nonmetric", "nonmetric.csv")]}
    cfg = CorrSimConfig(p=3, n=8, eps=0.1, reps=1, seed=1)
    corr, _ = gen_correlation_sample(cfg, child_rng(1, 1))
    dump_objects(corr, paths["corr"])
    write_distance_csv(paths["dm"], distance_matrix(corr))
    dump_objects(gen_histogram_groups(5, 5, 2.0, 8, seed=3), paths["hist"])
    write_distance_csv(paths["nonmetric"], nonmetric_dm())
    return {**paths, "dir": tmp_path}


def _argv(template, files, out):
    return [out if arg == OUT else files.get(arg, arg) for arg in template]


@pytest.mark.parametrize("name", list(COMMANDS))
def test_exit_zero_and_byte_identical_rerun(name, files):
    outputs = []
    for run in (1, 2):
        out = str(files["dir"] / f"{name}-{run}.out")
        assert main(_argv(COMMANDS[name], files, out)) == 0
        with open(out, "rb") as fh:
            outputs.append(fh.read())
    assert outputs[0]
    assert outputs[0] == outputs[1]


def _refuse_full_passes(monkeypatch, message):
    """Fail on a depth block that holds every row of a table, as the full
    pass does."""
    score = depths._depths

    def refusing(state, q):
        if full_pass_tables(state, q):
            raise AssertionError(message)
        return score(state, q)

    monkeypatch.setattr(depths, "_depths", refusing)


def test_deepest_mod3_on_an_uncertified_sample(tmp_path, monkeypatch):
    # 40 correlation matrices fail the Euclidean certificate: the argmax
    # comes from partial kernel sums, and is the full pass's bitwise
    corr, _ = gen_correlation_sample(CorrSimConfig(p=3, n=40, eps=0.1, reps=1, seed=2),
                                     child_rng(2, 1))
    path = str(tmp_path / "corr40.json")
    dump_objects(corr, path)
    dm = distance_matrix(corr)
    assert not depths.euclidean_certificate(dm)
    values = depths.depth_values(dm, depths.DepthMethod.MOD3)
    _refuse_full_passes(monkeypatch, "deepest took the full pass")
    outputs = []
    for run in (1, 2):
        out = str(tmp_path / f"deepest-{run}.json")
        assert main(["deepest", "--in", path, "--method", "MOD3", "--out", out]) == 0
        with open(out, "rb") as fh:
            outputs.append(fh.read())
    assert outputs[0] == outputs[1]
    report = json.loads(outputs[0])
    i0 = int(np.argmax(values))
    assert report["index"] == i0
    assert np.float64(report["depth"]).tobytes() == values[i0].tobytes()


@pytest.mark.parametrize("name", ["depth-dm-json", "deepest", "deepest-oos", "simulate-corr",
                                  "simulate-sphere", "permtest", "swap-test"])
def test_unknown_method_exits_two(name, files):
    argv = _argv(COMMANDS[name], files, str(files["dir"] / "unused.out"))
    flag = "--method" if "--method" in argv else "--methods"
    argv[argv.index(flag) + 1] = "NOPE"
    assert main(argv) == 2


def test_threads_flag_removed(files):
    with pytest.raises(SystemExit) as exc:
        main(["depth", "--dm", files["dm"], "--method", "MLD", "--threads", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("name", ["dist", "depth-in-csv", "deepest", "permtest", "swap-test"])
def test_metric_flag_removed(name, files):
    # the object kind fixes the metric; the flag that repeated it is gone
    argv = _argv(COMMANDS[name], files, str(files["dir"] / "unused.out"))
    metric = "wass" if name in ("permtest", "swap-test") else "spd"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--metric", metric])
    assert exc.value.code == 2


def test_stdout_report_matches_out_file(files, capsys):
    argv = ["depth", "--dm", files["dm"], "--method", "MLD"]
    out = str(files["dir"] / "depth.json")
    assert main([*argv, "--out", out]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    with open(out) as fh:
        assert capsys.readouterr().out == fh.read()


def _assert_stdout_matches_out_file(name, files, capsys):
    # stdout equals the --out bytes, and a repeat run prints the same bytes
    argv = _argv(COMMANDS[name], files, OUT)
    i = argv.index("--out")
    del argv[i:i + 2]
    out = str(files["dir"] / f"{name}.json")
    assert main([*argv, "--out", out]) == 0
    capsys.readouterr()
    printed = []
    for run in (1, 2):
        assert main(argv) == 0
        printed.append(capsys.readouterr().out.encode())
    with open(out, "rb") as fh:
        assert printed[0] == fh.read()
    assert printed[1] == printed[0]


def _write_histogram_csv(objects, path):
    # label, then alternating edge and mass columns, ending with the last edge
    with open(path, "w") as fh:
        for h, label in zip(objects.items, objects.labels):
            cols = [label]
            for e, m in zip(h.edges[:-1], h.masses):
                cols += [repr(float(e)), repr(float(m))]
            fh.write(",".join([*cols, repr(float(h.edges[-1]))]) + "\n")


@pytest.mark.parametrize("name", ["permtest", "swap-test"])
def test_stdout_report_matches_out_file_on_histogram_csv(name, files, capsys):
    csv = str(files["dir"] / "hist.csv")
    _write_histogram_csv(gen_histogram_groups(6, 6, 1.0, 8, seed=7), csv)
    _assert_stdout_matches_out_file(name, {**files, "hist": csv}, capsys)


@pytest.mark.parametrize("name", ["deepest-hist-mod3", "simulate-corr", "simulate-sphere"])
def test_stdout_report_matches_out_file_on_fixtures(name, files, capsys, monkeypatch):
    if name == "deepest-hist-mod3":
        # histograms are certified, so MOD3 finds the argmax by elimination
        _refuse_full_passes(monkeypatch, "full MOD3 pass on a certified sample")
    _assert_stdout_matches_out_file(name, files, capsys)


def test_permtest_seed_beyond_64_bits(files):
    # 2**64 + 5 is three entropy words, so numpy's seeding mixes the
    # permutation index in after the pool: draw b is still the child stream
    # (seed, PERMUTATION_TAG, b)
    seed = 2**64 + 5
    out = str(files["dir"] / "permtest-wide-seed.json")
    assert main(["permtest", "--in", files["hist"], "--method", "MLD", "--B", "10",
                 "--seed", str(seed), "--out", out]) == 0
    with open(out) as fh:
        report = json.load(fh)
    assert report["config"]["seed"] == seed
    objects = load_objects(files["hist"])
    dm = distance_matrix(objects)
    labels = np.asarray(objects.labels)
    want = [statistic_from_dm(dm, labels[child_rng(seed, PERMUTATION_TAG, b).permutation(10)],
                              "MLD") for b in range(10)]
    assert report["t_permuted"] == want


def test_subsampled_triples_drawn_once(files, monkeypatch):
    calls = []
    original = depths._sample_triple_ranks

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(depths, "_sample_triple_ranks", counting)
    out = str(files["dir"] / "sub.json")
    argv = ["depth", "--in", files["corr"], "--method", "MOD3", "--subsample", "20",
            "--seed", "3", "--out", out]
    assert main(argv) == 0
    assert len(calls) == 1


def test_import_leaves_concurrent_futures_out():
    # the depth tiles' thread pool is imported when a call first uses it;
    # at import, concurrent.futures would add its cost (and logging's) to
    # every command
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, metricdepth; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "False"


def test_import_leaves_scipy_optimize_out():
    # scipy.optimize is imported by the quasi-Newton search only; importing
    # it costs most of a command's start-up
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, metricdepth.cli; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("extra", [["--method", "MLD", "--seed", "1"], ["--method", "MOD3"]])
def test_subsample_rejected_before_any_depth_work(extra, files, monkeypatch):
    # a non-MOD3 method, or a missing seed, is refused before the first
    # subsampled depth is computed
    def fail(*args, **kwargs):
        raise AssertionError("subsampled depth computed before validation")

    monkeypatch.setattr(cli, "mod3_subsample_state", fail)
    assert main(["depth", "--dm", files["dm"], "--subsample", "5", *extra]) == 2


@pytest.mark.parametrize("infile, extra", [("hist", ["--seed", "1"]), ("corr", [])])
def test_out_of_sample_rejected_before_any_distance_work(infile, extra, files, monkeypatch):
    # a non-correlation input, or a missing seed, is refused before the
    # distance matrix is computed
    def fail(*args, **kwargs):
        raise AssertionError("distance matrix computed before validation")

    monkeypatch.setattr(cli, "distance_matrix", fail)
    monkeypatch.setattr(deepest, "distance_matrix", fail)
    argv = ["deepest", "--in", files[infile], "--method", "MLD", "--out-of-sample", *extra]
    assert main(argv) == 2


@pytest.mark.parametrize("argv", [
    ["swap-test", "--in", "hist", "--methods", "MLD", "--k", "1", "--B", "0", "--seed", "1"],
    ["deepest", "--in", "corr", "--method", "MLD", "--out-of-sample", "--seed", "1",
     "--tsh", "1.5"],
    ["simulate-corr", "--p", "3", "--n", "8", "--eps", "0.1", "--reps", "1", "--methods", "MLD",
     "--seed", "1", "--out-of-sample", "--tsh", "0"],
    *(["deepest", "--in", "corr", "--method", "MLD", "--out-of-sample", "--seed", "1",
       "--halfwidth", width] for width in ("inf", "1e308", "nan")),
    ["simulate-corr", "--p", "3", "--n", "8", "--eps", "0.1", "--reps", "1", "--methods", "MLD",
     "--seed", "1", "--out-of-sample", "--halfwidth", "inf"],
], ids=["swap-test-B0", "deepest-oos-tsh", "simulate-corr-oos-tsh", "deepest-oos-halfwidth-inf",
        "deepest-oos-halfwidth-1e308", "deepest-oos-halfwidth-nan",
        "simulate-corr-oos-halfwidth-inf"])
def test_bad_arguments_rejected_before_any_distance_work(argv, files, monkeypatch):
    # no permutations, a PCA threshold outside (0, 1], or a box whose width
    # is not finite, is refused before a replicate is drawn or a distance
    # matrix computed
    def fail(*args, **kwargs):
        raise AssertionError("distance work before validation")

    for module in (cli, deepest, inference, simulation):
        monkeypatch.setattr(module, "distance_matrix", fail)
    monkeypatch.setattr(simulation, "gen_correlation_sample", fail)
    assert main(_argv(argv, files, None)) == 2


def test_non_metric_distances_exit_three(files):
    assert main(["depth", "--dm", files["nonmetric"], "--method", "MOD3"]) == 3


def test_subsampled_non_metric_distances_exit_three(files):
    argv = ["depth", "--dm", files["nonmetric"], "--method", "MOD3", "--subsample", "4",
            "--seed", "1"]
    assert main(argv) == 3


def _write_equicorrelations(path, rhos):
    # 3 x 3 correlation matrices with every off-diagonal entry rho, two groups
    items = []
    for i, rho in enumerate(rhos):
        m = np.full((3, 3), rho)
        np.fill_diagonal(m, 1.0)
        items.append({"kind": "corr", "p": 3, "rows": m.tolist(), "label": "ab"[i % 2]})
    with open(path, "w") as fh:
        json.dump(items, fh)
    return path


NUMERIC_COMMANDS = {
    "dist": ["dist", "--out", OUT],
    "depth-in": ["depth", "--method", "MLD"],
    "deepest": ["deepest", "--method", "MLD"],
    "deepest-oos": ["deepest", "--method", "MLD", "--out-of-sample", "--seed", "1"],
    "permtest": ["permtest", "--method", "MLD", "--B", "3", "--seed", "1"],
    "swap-test": ["swap-test", "--methods", "MLD", "--k", "1", "--repeats", "1", "--B", "3",
                  "--seed", "1"],
}


@pytest.mark.parametrize("name", list(NUMERIC_COMMANDS))
def test_near_singular_correlations_exit_three(name, files):
    # rho = -0.5 + 1e-12 has smallest eigenvalue 2e-12, above the loader's
    # floor of 1e-12, along the top eigenvector of rho = 0.99; the pair's
    # congruence then has an eigenvalue of 7e-13, and their distance fails
    path = _write_equicorrelations(str(files["dir"] / "near-singular.json"),
                                   [0.99, -0.5 + 1e-12, 0.2, 0.3])
    argv = _argv(NUMERIC_COMMANDS[name], files, str(files["dir"] / "unused.out"))
    assert main([*argv, "--in", path]) == 3


@pytest.mark.parametrize("name", list(NUMERIC_COMMANDS))
def test_indefinite_correlations_rejected_by_the_loader(name, files):
    # rho = -0.6 has eigenvalue -0.2: the loader refuses the matrix as
    # invalid input, so these commands exit 2 before computing any distance
    path = _write_equicorrelations(str(files["dir"] / "indefinite.json"),
                                   [0.2, -0.6, 0.3, 0.4])
    argv = _argv(NUMERIC_COMMANDS[name], files, str(files["dir"] / "unused.out"))
    assert main([*argv, "--in", path]) == 2


def test_subsample_timings_reported(files):
    out = str(files["dir"] / "sub.json")
    argv = _argv(COMMANDS["depth-subsample"], files, out)
    assert main([*argv, "--timings"]) == 0
    with open(out) as fh:
        report = json.load(fh)
    assert isinstance(report["elapsed_seconds"], float)
    assert report["subsample"] == 20


def test_subsample_timings_include_the_draw(files, monkeypatch):
    original = depths._sample_triple_ranks

    def slow(*args):
        time.sleep(0.25)
        return original(*args)

    monkeypatch.setattr(depths, "_sample_triple_ranks", slow)
    out = str(files["dir"] / "sub.json")
    assert main([*_argv(COMMANDS["depth-subsample"], files, out), "--timings"]) == 0
    with open(out) as fh:
        assert json.load(fh)["elapsed_seconds"] >= 0.25
