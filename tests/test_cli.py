"""Tests for the command-line front-end, driven through ``main(argv)``."""

import pytest

from conftest import nonmetric_dm
from metricdepth import cli
from metricdepth.cli import main
from metricdepth.core import write_distance_csv
from metricdepth.seeding import child_rng
from metricdepth.simulation import CorrSimConfig, gen_correlation_sample, gen_histogram_groups
from metricdepth.spaces import distance_matrix, dump_objects

OUT = "{out}"

# every command writes its report to OUT; "corr", "dm" and "hist" name the
# input files of the ``files`` fixture
COMMANDS = {
    "dist": ["dist", "--in", "corr", "--out", OUT],
    "depth-dm-json": ["depth", "--dm", "dm", "--method", "MOD3", "--out", OUT],
    "depth-in-csv": ["depth", "--in", "corr", "--method", "MLD", "--format", "csv",
                     "--out", OUT],
    "depth-subsample": ["depth", "--in", "corr", "--method", "MOD3", "--subsample", "20",
                        "--seed", "3", "--out", OUT],
    "deepest": ["deepest", "--in", "corr", "--method", "MSD", "--out", OUT],
    "deepest-oos": ["deepest", "--in", "corr", "--method", "MLD", "--out-of-sample",
                    "--seed", "2", "--starts", "2", "--max-evals", "20", "--out", OUT],
    "simulate-corr": ["simulate-corr", "--p", "3", "--n", "8", "--eps", "0.1", "--reps", "2",
                      "--methods", "MOD3,MLD", "--seed", "1", "--out", OUT],
    "simulate-sphere": ["simulate-sphere", "--p", "3", "--n", "8", "--eps", "0.1",
                        "--reps", "2", "--methods", "MSD,MHD", "--seed", "1", "--out", OUT],
    "permtest": ["permtest", "--in", "hist", "--method", "MLD", "--B", "10", "--seed", "4",
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


@pytest.mark.parametrize("extra", [["--method", "MLD", "--seed", "1"], ["--method", "MOD3"]])
def test_subsample_rejected_before_any_depth_work(extra, files, monkeypatch):
    # a non-MOD3 method, or a missing seed, is refused before the first
    # subsampled depth is computed
    def fail(*args, **kwargs):
        raise AssertionError("subsampled depth computed before validation")

    monkeypatch.setattr(cli, "mod3_depth_subsampled", fail)
    assert main(["depth", "--dm", files["dm"], "--subsample", "5", *extra]) == 2


def test_non_metric_distances_exit_three(files):
    assert main(["depth", "--dm", files["nonmetric"], "--method", "MOD3"]) == 3
