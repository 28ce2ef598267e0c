"""Tests for deepest-object estimation: charts, PCA, optimizers, pipeline."""

import numpy as np
import pytest

from conftest import corr_dm, euclidean_dm, histogram_dm, line_dm, nonmetric_dm, sphere_dm
from metricdepth import deepest
from metricdepth.core import DistanceMatrix
from metricdepth.deepest import (
    OptimizerConfig,
    cholesky_decode,
    cholesky_encode,
    deepest_in_sample,
    deepest_out_of_sample,
    optimize_box,
    pca_decode,
    pca_encode,
    pca_fit,
)
from metricdepth.depths import (
    DepthMethod,
    depth_of_query,
    depth_values,
    euclidean_certificate,
    mod3_subsample_state,
)
from metricdepth.errors import (
    DegenerateDecodeError,
    InsufficientSampleError,
    InvalidArgumentError,
    MetricViolationError,
    NotPositiveDefiniteError,
)
from metricdepth.inference import statistic_from_dm
from metricdepth.simulation import CorrSimConfig, gen_correlation_sample
from metricdepth.seeding import child_rng
from metricdepth.spaces import (
    CorrelationMatrix,
    ObjectSet,
    distance_matrix,
    query_distances,
    spd_distance,
)


def random_correlation(rng, p):
    a = rng.standard_normal((p, p))
    s = a @ a.T + 0.5 * np.eye(p)
    d = np.sqrt(np.diagonal(s))
    return CorrelationMatrix(s / np.outer(d, d))


class TestDeepestInSample:
    def test_line_mld_picks_middle(self):
        res = deepest_in_sample(line_dm([0.0, 2.0, 4.0]), DepthMethod.MLD)
        assert res.index == 1
        assert res.depth == pytest.approx(1 / 3)

    def test_all_identical_ties_break_low(self):
        res = deepest_in_sample(DistanceMatrix(np.zeros((5, 5))), DepthMethod.MSD)
        assert res.index == 0

    def test_line_msd_picks_middle(self):
        res = deepest_in_sample(line_dm([0.0, 2.0, 4.0]), DepthMethod.MSD)
        assert res.index == 1

    def test_argmax_invariant_under_distance_scaling(self, rng):
        for _ in range(50):
            n = int(rng.integers(5, 15))
            pts = rng.standard_normal((n, 3))
            dm = euclidean_dm(pts)
            scaled = DistanceMatrix(dm.values * float(rng.uniform(0.1, 10)))
            for method in DepthMethod:
                assert deepest_in_sample(dm, method).index == \
                    deepest_in_sample(scaled, method).index


class TestMod3Elimination:
    """The MOD3 in-sample argmax by elimination is the full pass's, bitwise."""

    @pytest.fixture
    def full_passes(self, monkeypatch):
        # counts the full passes deepest_in_sample falls back to
        calls = []

        def counting(dm, method):
            calls.append(method)
            return depth_values(dm, method)

        monkeypatch.setattr(deepest, "depth_values", counting)
        return calls

    @staticmethod
    def assert_full_pass_pick(dm):
        values = depth_values(dm, DepthMethod.MOD3)
        res = deepest_in_sample(dm, DepthMethod.MOD3)
        i0 = int(np.argmax(values))
        assert res.index == i0
        assert np.float64(res.depth).tobytes() == values[i0].tobytes()
        return res

    @pytest.mark.parametrize("n", [3, 4, 5, 7, 12, 25, 40, 60])
    def test_histograms(self, n, full_passes):
        for seed in range(3):
            self.assert_full_pass_pick(histogram_dm(n, seed))
        assert full_passes == []

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_euclidean_points(self, dim, rng, full_passes):
        # in one and two dimensions det B3 = 0, so the bound is tight and
        # candidates differ from it only by round-off
        for n in (3, 5, 10, 30, 50):
            for _ in range(3):
                self.assert_full_pass_pick(euclidean_dm(rng.standard_normal((n, dim))))
        assert full_passes == []

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_mirrored_points_tie_break_low(self, dim, rng, full_passes):
        # mirror pairs have equal depths up to round-off, and bounds within
        # round-off of each other
        for n in (3, 5, 10, 30):
            for _ in range(3):
                pts = rng.standard_normal((n, dim))
                self.assert_full_pass_pick(euclidean_dm(np.concatenate([pts, -pts])))
        assert full_passes == []

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_duplicated_objects_tie_break_low(self, dim, rng, full_passes):
        for n in (4, 10, 30):
            for _ in range(5):
                pts = rng.standard_normal((n, dim))
                self.assert_full_pass_pick(euclidean_dm(pts[rng.integers(0, n // 2, n)]))
        assert full_passes == []

    def test_duplicate_of_the_deepest_object(self, full_passes):
        res = self.assert_full_pass_pick(line_dm([0.0, 1.0, 1.0, 2.0]))
        assert res.index == 1
        res = self.assert_full_pass_pick(DistanceMatrix(np.zeros((5, 5))))
        assert res.index == 0 and res.depth == 1.0
        assert full_passes == []

    @pytest.mark.parametrize("make", [corr_dm, sphere_dm])
    def test_uncertified_samples_take_the_full_pass(self, make, full_passes):
        for n, seed in [(20, 1), (30, 2), (40, 3)]:
            dm = make(n, seed)
            assert not euclidean_certificate(dm)
            self.assert_full_pass_pick(dm)
        assert full_passes == [DepthMethod.MOD3] * 3

    def test_non_metric_input_still_raises(self):
        with pytest.raises(MetricViolationError):
            deepest_in_sample(nonmetric_dm(), DepthMethod.MOD3)
        # a non-metric group inside a two-group statistic
        v = np.full((7, 7), 10.0)
        v[:4, :4] = nonmetric_dm().values
        v[4:, 4:] = line_dm([0.0, 1.0, 3.0]).values
        with pytest.raises(MetricViolationError):
            statistic_from_dm(DistanceMatrix(v), np.array([0, 0, 0, 0, 1, 1, 1]),
                              DepthMethod.MOD3)

    def test_too_small_sample_still_raises(self):
        with pytest.raises(InsufficientSampleError):
            deepest_in_sample(line_dm([0.0, 1.0]), DepthMethod.MOD3)

    def test_subsampled_state_scores_its_own_triples(self, full_passes):
        dm = histogram_dm(12, 2)
        full = deepest_in_sample(dm, DepthMethod.MOD3).index
        picks = set()
        for seed in range(6):
            state = mod3_subsample_state(dm, 10, seed)
            res = self.assert_full_pass_pick(state)
            picks.add(res.index)
        # the drawn triples, not the whole sample, decide the pick
        assert picks != {full}
        assert len(full_passes) == 6

    def test_subsampled_state_over_every_triple(self, full_passes):
        dm = histogram_dm(12, 2)
        res = self.assert_full_pass_pick(mod3_subsample_state(dm, 220, 1))
        assert res == deepest_in_sample(dm, DepthMethod.MOD3)
        assert full_passes == []


class TestCholeskyChart:
    def test_identity_two(self):
        assert np.array_equal(cholesky_encode(np.eye(2)), [1.0, 0.0, 1.0])

    def test_identity_three(self):
        assert np.array_equal(cholesky_encode(np.eye(3)), [1, 0, 1, 0, 0, 1])

    def test_correlated_pair(self):
        enc = cholesky_encode(np.array([[1.0, 0.5], [0.5, 1.0]]))
        assert enc == pytest.approx([1.0, 0.5, np.sqrt(0.75)], abs=1e-12)

    def test_decode_identity(self):
        assert np.array_equal(cholesky_decode([1.0, 0.0, 1.0]).entries, np.eye(2))

    def test_decode_rescales_to_unit_diagonal(self):
        assert np.array_equal(cholesky_decode([2.0, 0.0, 2.0]).entries, np.eye(2))

    def test_decode_roundtrip(self):
        x = np.array([[1.0, 0.5], [0.5, 1.0]])
        back = cholesky_decode(cholesky_encode(x))
        assert np.allclose(back.entries, x, atol=1e-12)

    def test_roundtrip_random_dimensions(self, rng):
        for p in range(2, 7):
            for _ in range(20):
                x = random_correlation(rng, p)
                back = cholesky_decode(cholesky_encode(x))
                assert np.max(np.abs(back.entries - x.entries)) < 1e-10

    def test_not_pd_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_encode(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_non_triangular_length_rejected(self):
        with pytest.raises(InvalidArgumentError):
            cholesky_decode([1.0, 2.0, 3.0, 4.0])

    def test_degenerate_decode_raises(self):
        with pytest.raises(DegenerateDecodeError):
            cholesky_decode([1.0, 0.0, 0.0])  # zero diagonal in L L'

    def test_decode_never_silently_invalid(self, rng):
        # random vectors either decode to a valid correlation matrix or raise
        for _ in range(300):
            v = rng.standard_normal(6) * rng.choice([0.01, 1.0, 10.0])
            try:
                out = cholesky_decode(v)
            except DegenerateDecodeError:
                continue
            assert np.max(np.abs(np.diagonal(out.entries) - 1.0)) <= 1e-10
            assert np.min(np.linalg.eigvalsh(out.entries)) > 1e-12


class TestPca:
    def test_planar_data_keeps_two(self, rng):
        data = np.zeros((25, 6))
        data[:, 1] = rng.standard_normal(25)
        data[:, 4] = rng.standard_normal(25)
        model = pca_fit(data, 0.9)
        assert model.r == 2
        assert model.explained.sum() == pytest.approx(1.0, abs=1e-12)

    def test_isotropic_needs_all(self, rng):
        data = rng.standard_normal((4000, 4))
        assert pca_fit(data, 0.9).r == 4

    def test_floor_of_two(self, rng):
        data = rng.standard_normal((50, 5))
        assert pca_fit(data, 1e-9).r == 2

    def test_r_capped_by_sample_size(self, rng):
        data = rng.standard_normal((3, 10))
        assert pca_fit(data, 1.0).r <= 3

    def test_components_orthonormal_ordered(self, rng):
        model = pca_fit(rng.standard_normal((40, 7)) * [1, 2, 3, 4, 5, 6, 7], 0.99)
        gram = model.components @ model.components.T
        assert np.max(np.abs(gram - np.eye(model.r))) < 1e-9
        assert np.all(np.diff(model.explained) <= 1e-15)
        assert np.min(model.explained) >= 0.0

    def test_sign_convention_deterministic(self, rng):
        data = rng.standard_normal((30, 4))
        m1 = pca_fit(data, 0.9)
        m2 = pca_fit(data, 0.9)
        assert np.array_equal(m1.components, m2.components)
        for row in m1.components:
            nz = np.nonzero(np.abs(row) > 1e-12)[0]
            assert row[nz[0]] > 0

    def test_encode_of_mean_is_zero(self, rng):
        data = rng.standard_normal((20, 5))
        model = pca_fit(data, 0.9)
        assert np.max(np.abs(pca_encode(model, data.mean(axis=0)))) < 1e-12

    def test_full_rank_roundtrip(self, rng):
        data = rng.standard_normal((30, 4))
        model = pca_fit(data, 1.0)
        row = data[7]
        assert np.max(np.abs(pca_decode(model, pca_encode(model, row)) - row)) < 1e-9

    def test_planar_roundtrip(self, rng):
        basis = rng.standard_normal((2, 6))
        data = rng.standard_normal((20, 2)) @ basis + 3.0
        model = pca_fit(data, 0.9)
        row = data[11]
        assert np.max(np.abs(pca_decode(model, pca_encode(model, row)) - row)) < 1e-9

    def test_needs_two_rows(self):
        with pytest.raises(InsufficientSampleError):
            pca_fit(np.zeros((1, 3)), 0.9)


class TestOptimizeBox:
    @pytest.mark.parametrize("algorithm", ["simplex-box", "quasi-newton-box"])
    def test_quadratic_interior_maximum(self, algorithm):
        center = np.array([0.3, -0.2])
        cfg = OptimizerConfig(algorithm=algorithm)
        point, value, evals = optimize_box(
            lambda x: -np.sum((x - center) ** 2),
            np.zeros(2), -np.ones(2), np.ones(2), cfg,
        )
        assert np.max(np.abs(point - center)) < 1e-4
        assert evals >= 1

    @pytest.mark.parametrize("algorithm", ["simplex-box", "quasi-newton-box"])
    def test_rosenbrock(self, algorithm):
        cfg = OptimizerConfig(algorithm=algorithm)
        point, value, _ = optimize_box(
            lambda x: -((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2),
            np.array([-1.2, 1.0]), np.array([-2.0, -2.0]), np.array([2.0, 2.0]), cfg,
        )
        assert np.max(np.abs(point - 1.0)) < 1e-2

    @pytest.mark.parametrize("algorithm", ["simplex-box", "quasi-newton-box"])
    def test_maximum_on_box_face(self, algorithm):
        center = np.array([2.0, 0.1])
        cfg = OptimizerConfig(algorithm=algorithm)
        point, _, _ = optimize_box(
            lambda x: -np.sum((x - center) ** 2),
            np.zeros(2), -np.ones(2), np.ones(2), cfg,
        )
        assert np.max(np.abs(point - [1.0, 0.1])) < 1e-4

    @pytest.mark.parametrize("algorithm", ["simplex-box", "quasi-newton-box"])
    def test_never_regresses_below_start(self, algorithm, rng):
        # adversarial objective: best at the start, noisy elsewhere
        cfg = OptimizerConfig(algorithm=algorithm, max_evaluations=60)
        for trial in range(10):
            table = {}

            def objective(x, trial=trial):
                key = tuple(np.round(x, 12))
                if key not in table:
                    table[key] = float(np.sin(31.7 * trial + 57.3 * np.sum(x * x)))
                return table[key]

            start = rng.uniform(-0.5, 0.5, 3)
            point, value, _ = optimize_box(
                objective, start, start - 1.0, start + 1.0, cfg)
            assert value >= objective(start)
            assert np.all(point >= start - 1.0) and np.all(point <= start + 1.0)

    @pytest.mark.parametrize("algorithm", ["simplex-box", "quasi-newton-box"])
    def test_respects_evaluation_budget(self, algorithm):
        calls = []

        def objective(x):
            calls.append(1)
            return -np.sum(x * x)

        cfg = OptimizerConfig(algorithm=algorithm, max_evaluations=25)
        _, _, evals = optimize_box(objective, np.full(4, 0.5), np.zeros(4), np.ones(4), cfg)
        assert evals == len(calls)
        # the quasi-newton line search may finish its last gradient batch
        assert len(calls) <= 25 + (9 if algorithm == "quasi-newton-box" else 0)

    def test_start_outside_bounds_rejected(self):
        with pytest.raises(InvalidArgumentError):
            optimize_box(lambda x: 0.0, np.array([2.0]), np.array([0.0]), np.array([1.0]))

    def test_nonfinite_start_rejected(self):
        with pytest.raises(InvalidArgumentError):
            optimize_box(lambda x: float("nan"), np.array([0.5]),
                         np.array([0.0]), np.array([1.0]))

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(InvalidArgumentError):
            OptimizerConfig(algorithm="gradient-descent")


class TestOutOfSample:
    def test_identical_sample_recovers_object(self):
        x0 = CorrelationMatrix(np.array([[1.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.0]]))
        objs = ObjectSet(tuple([x0] * 6))
        res = deepest_out_of_sample(objs, DepthMethod.MOD3, tsh=0.9)
        assert spd_distance(res.object, x0) < 1e-8

    def test_depth_dominates_reconstructed_starts(self, rng):
        # postcondition: returned depth is at least the depth of every
        # reconstructed start
        for trial in range(20):
            cfg = CorrSimConfig(p=3, n=15, eps=0.2, reps=1, seed=trial)
            objs, _ = gen_correlation_sample(cfg, child_rng(trial, 1))
            dm = distance_matrix(objs)
            opt = OptimizerConfig(max_evaluations=40)
            res = deepest_out_of_sample(objs, DepthMethod.MOD2, tsh=0.9, cfg=opt, dm=dm)
            data = np.array([cholesky_encode(o) for o in objs.items])
            model = pca_fit(data, 0.9)
            values = depth_values(dm, DepthMethod.MOD2)
            ranked = np.argsort(-values, kind="stable")[: opt.starts]
            for start in ranked:
                try:
                    obj = cholesky_decode(pca_decode(model, pca_encode(model, data[start])))
                except DegenerateDecodeError:
                    continue
                start_depth = depth_of_query(
                    query_distances(obj, objs), dm, DepthMethod.MOD2)
                assert res.depth >= start_depth - 1e-12

    def test_non_correlation_kind_rejected(self, rng):
        from metricdepth.spaces import EuclideanPoint

        objs = ObjectSet(tuple(EuclideanPoint(rng.standard_normal(2)) for _ in range(5)))
        with pytest.raises(InvalidArgumentError):
            deepest_out_of_sample(objs, DepthMethod.MOD3)
        # a 1 x 1 correlation matrix has no off-diagonal to search over
        objs = ObjectSet(tuple([CorrelationMatrix([[1.0]])] * 5))
        with pytest.raises(InvalidArgumentError):
            deepest_out_of_sample(objs, DepthMethod.MOD3)

    def test_deterministic(self, rng):
        cfg = CorrSimConfig(p=3, n=10, eps=0.1, reps=1, seed=4)
        objs, _ = gen_correlation_sample(cfg, child_rng(4, 1))
        opt = OptimizerConfig(max_evaluations=30)
        r1 = deepest_out_of_sample(objs, DepthMethod.MLD, cfg=opt)
        r2 = deepest_out_of_sample(objs, DepthMethod.MLD, cfg=opt)
        assert r1.depth == r2.depth
        assert np.array_equal(r1.object.entries, r2.object.entries)

    def test_mhd_pair_probabilities_computed_once(self, monkeypatch):
        # the pair probabilities depend on the sample only, so one search
        # computes them once however many objective evaluations it makes
        from metricdepth import depths

        calls = []
        original = depths.mhd_pair_probabilities

        def counting(cols):
            calls.append(1)
            return original(cols)

        monkeypatch.setattr(depths, "mhd_pair_probabilities", counting)
        cfg = CorrSimConfig(p=3, n=10, eps=0.1, reps=1, seed=4)
        objs, _ = gen_correlation_sample(cfg, child_rng(4, 1))
        res = deepest_out_of_sample(objs, DepthMethod.MHD,
                                    cfg=OptimizerConfig(max_evaluations=20, starts=2))
        assert res.evaluations > 1
        assert len(calls) == 1
