"""Tests for the data generators and the replicated experiment harness."""

import json

import numpy as np
import pytest

from metricdepth import simulation
from metricdepth.errors import InvalidArgumentError
from metricdepth.seeding import child_rng
from metricdepth.simulation import (
    CorrSimConfig,
    SphereSimConfig,
    gen_correlation_sample,
    gen_histogram_groups,
    gen_sphere_sample,
    random_orthogonal,
    run_location_experiment,
)
from metricdepth.spaces import sphere_distance


class TestRandomOrthogonal:
    def test_one_dimensional_is_sign(self, rng):
        vals = {float(random_orthogonal(1, child_rng(s, 0))[0, 0]) for s in range(40)}
        assert vals <= {-1.0, 1.0}
        assert len(vals) == 2

    def test_orthonormality(self, rng):
        for _ in range(100):
            u = random_orthogonal(5, rng)
            assert np.max(np.abs(u.T @ u - np.eye(5))) < 1e-10

    def test_first_coordinate_symmetric(self, rng):
        # Monte Carlo check of rotational symmetry: the first column's first
        # coordinate has mean 0 and variance 1/p
        draws = np.array([random_orthogonal(3, rng)[0, 0] for _ in range(5000)])
        assert abs(draws.mean()) < 3.0 * np.sqrt(1.0 / 3.0 / 5000)


class TestCorrelationGenerator:
    def test_unit_diagonal_exact(self):
        cfg = CorrSimConfig(p=2, n=50, eps=0.0, reps=1, seed=0, nu_bulk=0.0)
        objs, center = gen_correlation_sample(cfg, child_rng(0, 1))
        assert all(np.all(np.diagonal(o.entries) == 1.0) for o in objs.items)
        assert np.array_equal(center.entries, np.eye(2))

    def test_positive_definite_fuzz(self):
        cfg = CorrSimConfig(p=4, n=1000, eps=0.3, reps=1, seed=1)
        objs, _ = gen_correlation_sample(cfg, child_rng(1, 1))
        for o in objs.items:
            assert np.min(np.linalg.eigvalsh(o.entries)) > 0

    def test_depth_estimate_beats_random_pick(self):
        cfg = CorrSimConfig(p=3, n=200, eps=0.0, reps=20, seed=5)
        report = run_location_experiment("corr", cfg, ["MOD3"], baseline=True)
        assert report.mean_error("MOD3") < np.mean(report.baseline_errors)

    def test_config_validation(self):
        with pytest.raises(InvalidArgumentError):
            CorrSimConfig(p=1, n=10, eps=0.1, reps=1, seed=0)
        with pytest.raises(InvalidArgumentError):
            CorrSimConfig(p=3, n=10, eps=1.0, reps=1, seed=0)


class TestSphereGenerator:
    def test_unit_norm(self):
        cfg = SphereSimConfig(p=6, n=1000, eps=0.2, reps=1, seed=2)
        objs, _ = gen_sphere_sample(cfg, child_rng(2, 1))
        norms = [abs(np.linalg.norm(o.coords) - 1.0) for o in objs.items]
        assert max(norms) < 1e-12

    def test_concentration_at_large_lambda(self):
        cfg = SphereSimConfig(p=4, n=200, eps=0.0, reps=1, seed=3, lambda_bulk=1000.0)
        objs, center = gen_sphere_sample(cfg, child_rng(3, 1))
        dists = [sphere_distance(o, center) for o in objs.items]
        assert max(dists) < 0.01

    def test_negative_bulk_flips_center(self):
        cfg = SphereSimConfig(p=4, n=10, eps=0.0, reps=1, seed=3, lambda_bulk=-5.0)
        _, center = gen_sphere_sample(cfg, child_rng(3, 1))
        assert np.all(center.coords < 0)

    def test_zero_lambda_rejected(self):
        with pytest.raises(InvalidArgumentError):
            SphereSimConfig(p=3, n=10, eps=0.1, reps=1, seed=0, lambda_bulk=0.0)


class TestHistogramGroups:
    def test_labels_and_validity(self):
        objs = gen_histogram_groups(5, 7, 1.0, 12, seed=9)
        assert objs.kind == "hist"
        assert objs.labels.count("A") == 5 and objs.labels.count("B") == 7
        for h in objs.items:
            assert abs(h.masses.sum() - 1.0) < 1e-12

    def test_shifted_groups_separate(self):
        from metricdepth.depths import DepthMethod
        from metricdepth.inference import statistic_from_dm
        from metricdepth.spaces import distance_matrix

        objs = gen_histogram_groups(12, 12, 3.0, 20, seed=4)
        assert statistic_from_dm(distance_matrix(objs), objs.labels, DepthMethod.MOD3) > 1.0

    def test_counts_validated(self):
        with pytest.raises(InvalidArgumentError):
            gen_histogram_groups(1, 5, 0.0, 10, seed=0)


class TestExperimentHarness:
    def test_deterministic_reports(self):
        cfg = CorrSimConfig(p=3, n=8, eps=0.1, reps=2, seed=11)
        r1 = run_location_experiment("corr", cfg, ["MOD3", "MLD"], baseline=True)
        r2 = run_location_experiment("corr", cfg, ["MOD3", "MLD"], baseline=True)
        assert json.dumps(r1.to_dict(with_timing=False)) == \
            json.dumps(r2.to_dict(with_timing=False))

    def test_error_lengths_match_reps(self):
        cfg = SphereSimConfig(p=3, n=10, eps=0.0, reps=4, seed=1)
        report = run_location_experiment("sphere", cfg, ["MSD", "MHD"])
        for m in report.methods:
            assert len(report.errors[m]) == 4
            assert len(report.elapsed[m]) == 4
            assert min(report.errors[m]) >= 0.0

    def test_robustness_under_contamination(self):
        # doubling the outlier rate changes the error by less than 2x
        base = CorrSimConfig(p=3, n=60, eps=0.05, reps=50, seed=21)
        more = CorrSimConfig(p=3, n=60, eps=0.10, reps=50, seed=21)
        e05 = run_location_experiment("corr", base, ["MOD3"]).mean_error("MOD3")
        e10 = run_location_experiment("corr", more, ["MOD3"]).mean_error("MOD3")
        assert e10 < 2.0 * e05

    def test_out_of_sample_requires_corr(self):
        cfg = SphereSimConfig(p=3, n=10, eps=0.0, reps=1, seed=1)
        with pytest.raises(InvalidArgumentError):
            run_location_experiment("sphere", cfg, ["MOD3"], estimator="out-of-sample")

    @pytest.mark.parametrize("tsh", [0.0, 2.0])
    def test_out_of_sample_tsh_checked_before_any_replicate(self, tsh, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("replicate generated before validation")

        monkeypatch.setattr(simulation, "gen_correlation_sample", fail)
        cfg = CorrSimConfig(p=3, n=8, eps=0.1, reps=1, seed=1)
        with pytest.raises(InvalidArgumentError, match="tsh"):
            run_location_experiment("corr", cfg, ["MLD"], estimator="out-of-sample", tsh=tsh)

    def test_tidy_csv_rows(self, tmp_path):
        cfg = SphereSimConfig(p=3, n=10, eps=0.0, reps=3, seed=1)
        report = run_location_experiment("sphere", cfg, ["MLD"], baseline=True)
        path = tmp_path / "tidy.csv"
        report.write_tidy_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "space,estimator,method,replicate,error,elapsed_seconds"
        assert len(lines) == 1 + 3 + 3  # header + method rows + baseline rows
