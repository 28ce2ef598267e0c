"""Tests for deepest-object estimation: charts, PCA, optimizers, pipeline."""

import math
import warnings
from contextlib import suppress

import numpy as np
import pytest

from conftest import (
    corr_dm,
    euclidean_dm,
    full_pass_tables,
    histogram_dm,
    line_dm,
    nonmetric_dm,
    sphere_dm,
    tile_terms,
)
from metricdepth import deepest, depths, spaces
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
    EMBEDDING_TOL,
    DepthMethod,
    depth_of_query,
    depth_values,
    euclidean_certificate,
    mod3_lower_bounds,
    mod3_subsample_state,
    sample_state,
)
from metricdepth.errors import (
    DegenerateDecodeError,
    InsufficientSampleError,
    InvalidArgumentError,
    MetricViolationError,
    NotPositiveDefiniteError,
)
from metricdepth.inference import statistic_from_dm
from metricdepth.simulation import CorrSimConfig, gen_correlation_sample, gen_histogram_groups
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
        # one entry per table of which the MOD3 in-sample argmax scores every
        # row through the depth tiles at once, as the full pass does
        calls = []
        inside = []
        argmax, score = deepest._mod3_argmax, depths._depths

        def tracking(*args):
            inside.append(1)
            try:
                return argmax(*args)
            finally:
                inside.pop()

        def counting(state, q):
            if inside:
                calls.extend([state.method] * full_pass_tables(state, q))
            return score(state, q)

        monkeypatch.setattr(deepest, "_mod3_argmax", tracking)
        monkeypatch.setattr(depths, "_depths", counting)
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
    def test_uncertified_samples_skip_the_full_pass(self, make, full_passes):
        for n, seed in [(20, 1), (30, 2), (40, 3)]:
            dm = make(n, seed)
            assert not euclidean_certificate(dm)
            self.assert_full_pass_pick(dm)
        assert full_passes == []

    def test_asymmetric_array_takes_the_full_pass(self, full_passes):
        # relabelled kernels match the full pass's only on a symmetric table
        v = corr_dm(20, 1).values.copy()
        v[1, 0] *= 1 + 1e-12
        self.assert_full_pass_pick(v)
        assert full_passes == [DepthMethod.MOD3]

    @pytest.fixture
    def uncertified(self, monkeypatch):
        # partial sums need no certificate: small correlation samples may
        # pass it, and take the partial sums here too
        monkeypatch.setattr(depths, "_embeds", lambda v: False)

    @pytest.fixture
    def scored(self, monkeypatch):
        # the number of objects in each block that the depth tiles score
        counts = []
        score = depths._depths

        def counting(state, q):
            counts.append(q.shape[0])
            return score(state, q)

        monkeypatch.setattr(depths, "_depths", counting)
        return counts

    @pytest.mark.parametrize("make", [corr_dm, sphere_dm])
    @pytest.mark.parametrize("n", [6, 10, 20, 40, 70])
    def test_uncertified_sweep(self, make, n, uncertified, full_passes):
        # at n = 40 and 70 the rows of a tile step through their triples in
        # several tiles, and at n = 70 one row's triples exceed a tile
        assert math.comb(70, 3) > depths._BLOCK_TARGET
        for seed in range(4):
            self.assert_full_pass_pick(make(n, seed))
        assert full_passes == []

    @pytest.mark.parametrize("make", [corr_dm, sphere_dm])
    @pytest.mark.parametrize("n", [6, 20, 40])
    def test_uncertified_duplicate_of_the_deepest_object(self, make, n, monkeypatch, uncertified):
        for seed in range(3):
            v = make(n, seed).values
            i0 = int(np.argmax(depth_values(v, DepthMethod.MOD3)))
            # the deepest object again, at index 0
            dup = np.concatenate([[i0], np.arange(n)])
            v = DistanceMatrix(v[np.ix_(dup, dup)])
            assert self.assert_full_pass_pick(v).index == 0
            # scored first at its higher index, the copy at index 0 survives
            # the scan and wins the tie
            with monkeypatch.context() as m:
                m.setattr(depths, "mod3_lower_bounds",
                          lambda _: np.where(np.arange(n + 1) == i0 + 1, 0.0, 1.0))
                assert self.assert_full_pass_pick(v).index == 0

    @pytest.mark.parametrize("make", [corr_dm, sphere_dm])
    @pytest.mark.parametrize("scale", [1e-3, 3e-5, 1e-6])
    @pytest.mark.parametrize("n", [6, 20, 40])
    def test_uncertified_small_distances(self, make, scale, n, uncertified, full_passes):
        # mean kernels of about scale**3: at 1e-3 depths differ from 1 in
        # their last bits, at 3e-5 many tie after rounding, and at 1e-6
        # every depth rounds to 1 and the pick is index 0
        for seed in range(3):
            v = make(n, seed).values * scale
            self.assert_full_pass_pick(DistanceMatrix(v))
            # the deepest object again, at index 0
            i0 = int(np.argmax(depth_values(v, DepthMethod.MOD3)))
            dup = np.concatenate([[i0], np.arange(n)])
            assert self.assert_full_pass_pick(DistanceMatrix(v[np.ix_(dup, dup)])).index == 0
        assert full_passes == []

    @pytest.mark.parametrize("scale", [1e-3, 3e-5, 1e-6])
    def test_certified_small_distances(self, scale, rng, full_passes):
        # as above: at 1e-6 every depth rounds to 1, and so does every
        # ceiling, so the pick is index 0 whichever object is scored first
        for n in (6, 20, 40):
            for dim in (1, 2, 3):
                dm = DistanceMatrix(euclidean_dm(rng.standard_normal((n, dim))).values * scale)
                assert euclidean_certificate(dm)
                self.assert_full_pass_pick(dm)
        assert full_passes == []

    @pytest.mark.parametrize("make", [corr_dm, sphere_dm])
    def test_shallowest_object_scored_first(self, make, monkeypatch, uncertified, scored):
        # with the shallowest object scored first, every other object is
        # deeper, so none is dropped and all are scored after the scan
        for n, seed in [(10, 1), (40, 2), (70, 3)]:
            dm = make(n, seed)
            values = depth_values(dm, DepthMethod.MOD3)
            monkeypatch.setattr(depths, "mod3_lower_bounds", lambda _: values)
            scored.clear()
            res = deepest_in_sample(dm, DepthMethod.MOD3)
            # the reference alone, then every other object as one block
            assert scored == [1, n - 1]
            i0 = int(np.argmax(values))
            assert res.index == i0
            assert np.float64(res.depth).tobytes() == values[i0].tobytes()

    def test_certified_elimination_scores_few_objects(self, scored):
        # groups of 25 as a histogram permutation test draws them: the bound
        # walk that scored certified samples one object at a time scored at
        # most three objects per argmax on these draws (1.1 on average)
        most = 0
        for s in range(10):
            objs = gen_histogram_groups(25, 25, 1.0, 15, seed=s)
            v = distance_matrix(objs).values
            labels = np.asarray(objs.labels)
            for r in range(20):
                relabelled = labels[np.random.default_rng([s, r]).permutation(labels.size)]
                for name in np.unique(labels):
                    idx = np.flatnonzero(relabelled == name)
                    scored.clear()
                    deepest_in_sample(v[np.ix_(idx, idx)], DepthMethod.MOD3)
                    most = max(most, sum(scored))
        assert most <= 3

    @staticmethod
    def gram_eigenvalues(v):
        # the classical-MDS Gram that euclidean_certificate decomposes
        sq = v * v
        mean = sq.mean(axis=1)
        return np.linalg.eigvalsh(-0.5 * (sq - mean[:, None] - mean + mean.mean()))

    def test_certificate_tolerance_edge(self, full_passes):
        # 1-D samples of 12 points with two near-tied central points, whose
        # distances are perturbed by a relative 1e-10 to 3e-9: each Gram has
        # a negative eigenvalue within the certificate's tolerance, so det B3
        # can fall below zero and a mean kernel below its bound, but by less
        # than the elimination margin (about 2e-15 here, against 1e-9)
        for seed in range(100):
            rng = np.random.default_rng(seed)
            half = np.sort(rng.uniform(0.5, 3.0, 5))
            x = np.concatenate([-half[::-1], [-1e-3, 1e-3 + 1e-9], half])
            noise = np.triu(rng.uniform(-1.0, 1.0, (12, 12)), 1)
            noise += noise.T
            v = np.abs(x[:, None] - x)
            # scale the perturbation to put the Gram at 0.9 of the tolerance
            eig = self.gram_eigenvalues(v * (1 + 1e-9 * noise))
            eps = 1e-9 * 0.9 * EMBEDDING_TOL / (-eig[0] / eig[-1])
            assert 1e-10 <= eps <= 3e-9
            dm = DistanceMatrix(v * (1 + eps * noise))
            eig = self.gram_eigenvalues(dm.values)
            assert -EMBEDDING_TOL * eig[-1] <= eig[0] < 0
            assert euclidean_certificate(dm)
            state = sample_state(dm, DepthMethod.MOD3)
            mean = tile_terms(state, state.values).mean(axis=1)
            assert np.all(mod3_lower_bounds(dm) <= mean * (1 + depths._ELIMINATION_MARGIN))
            self.assert_full_pass_pick(dm)
        assert full_passes == []

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

    def test_non_metric_group_in_one_tile_still_raises(self):
        # ten objects: every object's triples fit in the first tile of the
        # scan, so every radicand of every object is evaluated
        n = 10
        assert math.comb(n, 3) <= depths._BLOCK_TARGET // (n - 1)
        v = np.full((n, n), 10.0)
        v[:4, :4] = nonmetric_dm().values
        v[4:, 4:] = line_dm(np.arange(6.0)).values
        dm = DistanceMatrix(v)
        assert not euclidean_certificate(dm)
        with pytest.raises(MetricViolationError):
            depth_values(dm, DepthMethod.MOD3)
        with pytest.raises(MetricViolationError):
            deepest_in_sample(dm, DepthMethod.MOD3)

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

    def test_lone_table_scored_through_the_callers_state(self, monkeypatch, full_passes):
        # a second MOD3 state at n=140 once raised the peak memory of an
        # in-sample replicate by 10 MB
        seen = []
        argmax = deepest._mod3_argmax

        def recording(s, *args):
            seen.append(s)
            return argmax(s, *args)

        monkeypatch.setattr(deepest, "_mod3_argmax", recording)
        state = sample_state(corr_dm(20, 1), DepthMethod.MOD3)
        self.assert_full_pass_pick(state)
        assert len(seen) == 1 and seen[0] is state
        # the full pass of a subsampled state reads its own triples too
        state = mod3_subsample_state(histogram_dm(12, 2), 10, 0)
        scored = []
        score = depths._depths

        def counting(s, q):
            scored.append(s)
            return score(s, q)

        monkeypatch.setattr(depths, "_depths", counting)
        self.assert_full_pass_pick(state)
        assert full_passes == [DepthMethod.MOD3] and scored
        assert all(s.index is state.index for s in scored)

    def test_stack_of_tables_on_their_own_paths(self, monkeypatch):
        # a histogram table passes the certificate, a correlation table
        # fails it and an asymmetric array is no distance table: each pick
        # and depth is the table's own full pass, bitwise, and only the
        # asymmetric array has every row scored
        n = 20
        asymmetric = corr_dm(n, 3).values.copy()
        asymmetric[1, 0] *= 1 + 1e-12
        tables = np.stack([histogram_dm(n, 2).values, corr_dm(n, 1).values, asymmetric])
        assert euclidean_certificate(tables[0]) and not euclidean_certificate(tables[1])
        want = [depth_values(v, DepthMethod.MOD3) for v in tables]
        rows = np.zeros(3, dtype=int)
        score = depths._depths

        def counting(state, q):
            rows[:] += np.bincount(state.which, minlength=3)
            return score(state, q)

        monkeypatch.setattr(depths, "_depths", counting)
        state = depths._mod3_state(tables, depths._triple_indices(n))
        pick, depth = depths._mod3_argmax(state)
        for t, values in enumerate(want):
            i0 = int(np.argmax(values))
            assert pick[t] == i0
            assert depth[t].tobytes() == values[i0].tobytes()
        assert rows[0] < n and rows[1] < n and rows[2] == n

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vector_rejected_first(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateDecodeError, match="entries must be finite"):
                cholesky_decode([1.0, bad, 1.0])
            # one bad row of a block does not spoil the others
            matrices, _, reasons = deepest._decode_rows(
                np.array([[1.0, bad, 1.0], [1.0, 1.0, 1.0]]), 2)
        assert reasons == ["encoded vector entries must be finite", None]
        assert np.array_equal(matrices, cholesky_decode([1.0, 1.0, 1.0]).entries[None])

    @pytest.mark.parametrize("v", [[1e200] * 3, [1e100] * 3, [1e160, 0.0, 1e160, 0.0, 0.0, 1e160]])
    def test_overflowing_decode_raises_without_warnings(self, v):
        # L L' overflows at 1e200; at 1e100 it does not, but the products of
        # its diagonal entries do, which would rescale it to the identity
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateDecodeError, match="overflows"):
                cholesky_decode(v)

    def test_large_vector_decodes_without_warnings(self):
        # the decode is scale-free while it stays in the floating-point range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = cholesky_decode([1e50, 1e50, 1e50]).entries
        assert np.allclose(big, cholesky_decode([1.0, 1.0, 1.0]).entries, rtol=1e-15, atol=0)

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


def _block(objective):
    """A scalar objective as the block objective optimize_box takes."""
    return lambda xs: np.array([objective(x) for x in xs])


class TestOptimizeBox:
    @pytest.mark.parametrize("algorithm", ["simplex-box", "quasi-newton-box"])
    def test_quadratic_interior_maximum(self, algorithm):
        center = np.array([0.3, -0.2])
        cfg = OptimizerConfig(algorithm=algorithm)
        point, value, evals = optimize_box(
            _block(lambda x: -np.sum((x - center) ** 2)),
            np.zeros(2), -np.ones(2), np.ones(2), cfg,
        )
        assert np.max(np.abs(point - center)) < 1e-4
        assert evals >= 1

    @pytest.mark.parametrize("algorithm", ["simplex-box", "quasi-newton-box"])
    def test_rosenbrock(self, algorithm):
        cfg = OptimizerConfig(algorithm=algorithm)
        point, value, _ = optimize_box(
            _block(lambda x: -((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2)),
            np.array([-1.2, 1.0]), np.array([-2.0, -2.0]), np.array([2.0, 2.0]), cfg,
        )
        assert np.max(np.abs(point - 1.0)) < 1e-2

    @pytest.mark.parametrize("algorithm", ["simplex-box", "quasi-newton-box"])
    def test_maximum_on_box_face(self, algorithm):
        center = np.array([2.0, 0.1])
        cfg = OptimizerConfig(algorithm=algorithm)
        point, _, _ = optimize_box(
            _block(lambda x: -np.sum((x - center) ** 2)),
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
                _block(objective), start, start - 1.0, start + 1.0, cfg)
            assert value >= objective(start)
            assert np.all(point >= start - 1.0) and np.all(point <= start + 1.0)

    @pytest.mark.parametrize("algorithm", ["simplex-box", "quasi-newton-box"])
    def test_respects_evaluation_budget(self, algorithm):
        # quasi-newton scores the start twice (once for scipy), then a
        # gradient of 8 points: budgets 3 and 9 end inside that gradient
        for budget in (3, 9, 25):
            calls = []

            def objective(x):
                calls.append(1)
                return -np.sum(x * x)

            cfg = OptimizerConfig(algorithm=algorithm, max_evaluations=budget)
            _, _, evals = optimize_box(_block(objective), np.full(4, 0.5), np.zeros(4),
                                       np.ones(4), cfg)
            assert evals == len(calls) <= budget

    def test_start_outside_bounds_rejected(self):
        with pytest.raises(InvalidArgumentError):
            optimize_box(_block(lambda x: 0.0), np.array([2.0]), np.array([0.0]),
                         np.array([1.0]))

    def test_nonfinite_start_rejected(self):
        with pytest.raises(InvalidArgumentError):
            optimize_box(_block(lambda x: float("nan")), np.array([0.5]),
                         np.array([0.0]), np.array([1.0]))

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(InvalidArgumentError):
            OptimizerConfig(algorithm="gradient-descent")

    @pytest.mark.parametrize("field, bad", [
        ("half_width", np.inf), ("half_width", 1e308), ("half_width", np.float64(1e308)),
        ("half_width", np.nan),
        ("half_width", 0.0), ("starts", 1.5), ("starts", True),
        ("starts", 0), ("max_evaluations", 1.5), ("max_evaluations", True),
        ("max_evaluations", 0)])
    def test_config_refuses_bad_values(self, field, bad):
        # an infinite box width (2 * 1e308 overflows) once searched NaN
        # points, and fractional counts raised TypeError inside the search
        with pytest.raises(InvalidArgumentError):
            OptimizerConfig(**{field: bad})

    def test_config_takes_numpy_counts(self):
        cfg = OptimizerConfig(half_width=1e307, starts=np.int64(2), max_evaluations=np.int32(9))
        assert cfg.starts == 2 and cfg.max_evaluations == 9

    @pytest.mark.parametrize("box", [
        ([np.nan], [0.0], [1.0]), ([0.5], [-np.inf], [1.0]), ([0.5], [0.0], [np.inf]),
        ([0.5], [0.0], [np.nan]), ([0.0], [-1e308], [1e308])],
        ids=["start-nan", "lower-inf", "upper-inf", "upper-nan", "width-overflow"])
    def test_non_finite_box_rejected(self, box):
        calls = []

        def objective(x):
            calls.append(x)
            return 0.0

        with pytest.raises(InvalidArgumentError, match="finite"):
            optimize_box(_block(objective), *map(np.array, box))
        assert calls == []


def _rosenbrock(x):
    # written with products only, so a row of a block rounds as a scalar does
    return -((1 - x[0]) * (1 - x[0]) + 100 * (x[1] - x[0] * x[0]) * (x[1] - x[0] * x[0])
             + x[2] * x[2])


def _noisy(xs):
    # a rugged surface, on which the simplex contracts and shrinks
    return np.sin(31.7 + 57.3 * np.sum(xs * xs, axis=1))


BOX = (np.array([0.2, -0.1, 0.3]), np.full(3, -1.0), np.full(3, 1.0))


class TestBlockEvaluation:
    @staticmethod
    def logged(block, sizes):
        def run(xs):
            sizes.append(len(xs))
            return block(xs)
        return run

    @pytest.mark.parametrize("algorithm", ["simplex-box", "quasi-newton-box"])
    @pytest.mark.parametrize("budget", [None, 3, 9, 40])
    def test_scalar_and_block_objectives_agree(self, algorithm, budget):
        cfg = OptimizerConfig(algorithm=algorithm, max_evaluations=budget)
        start, lower, upper = np.array([-1.2, 1.0, 0.5]), np.full(3, -2.0), np.full(3, 2.0)
        point, value, evals = optimize_box(_block(_rosenbrock), start, lower, upper, cfg)
        got = optimize_box(lambda xs: _rosenbrock(xs.T), start, lower, upper, cfg)
        assert np.array_equal(point, got[0])
        assert value == got[1] and evals == got[2]

    def test_simplex_budget_cut_inside_the_initial_simplex(self):
        sizes = []
        cfg = OptimizerConfig(max_evaluations=3)
        _, _, evals = optimize_box(self.logged(_noisy, sizes), *BOX, cfg)
        # the start, then the first two of the four vertices
        assert sizes == [1, 2]
        assert evals == 3

    def test_simplex_budget_cut_inside_a_shrink(self):
        sizes = []
        cfg = OptimizerConfig(max_evaluations=200)
        optimize_box(self.logged(_noisy, sizes), *BOX, cfg)
        # a shrink re-scores the three vertices other than the best as one block
        shrink = sizes.index(3)
        before = sum(sizes[:shrink])
        for extra in (1, 2):
            cut = []
            cfg = OptimizerConfig(max_evaluations=before + extra)
            _, _, evals = optimize_box(self.logged(_noisy, cut), *BOX, cfg)
            assert cut == [*sizes[:shrink], extra]
            assert evals == before + extra

    def test_quasi_newton_gradient_points_come_as_one_block(self):
        blocks = []

        def block(xs):
            blocks.append(xs.copy())
            return _rosenbrock(xs.T)

        cfg = OptimizerConfig(algorithm="quasi-newton-box")
        _, _, evals = optimize_box(block, *BOX, cfg)
        sizes = [len(xs) for xs in blocks]
        # single points (the start and the line search) and gradients of
        # 2r = 6 central-difference points
        assert set(sizes) == {1, 6}
        assert sizes.count(6) >= 3
        assert sum(sizes) == evals
        for xs in (xs for xs in blocks if len(xs) == 6):
            # two points per coordinate, which differ in that coordinate only
            for i in range(3):
                a, b = xs[2 * i], xs[2 * i + 1]
                assert a[i] != b[i]
                assert np.array_equal(np.delete(a, i), np.delete(b, i))

    @staticmethod
    def search_objective(objs, method, dm, monkeypatch):
        """The block objective that deepest_out_of_sample hands its
        optimizer, at tsh = 1 (every direction the sample varies in)."""
        captured = []

        def capture(block, start, lower, upper, cfg=None):
            # one search with the stack of starts, scored 0 with 1 evaluation each
            captured.append(block)
            return start, np.zeros(len(start)), np.ones(len(start), dtype=int)

        with monkeypatch.context() as patch:
            patch.setattr(deepest, "optimize_box", capture)
            deepest_out_of_sample(objs, method, tsh=1.0, cfg=OptimizerConfig(starts=1), dm=dm)
        return captured[0]

    @pytest.mark.parametrize("method", list(DepthMethod))
    def test_block_objective_matches_the_per_row_path(self, method, monkeypatch, rng):
        objs, _ = gen_correlation_sample(CorrSimConfig(p=4, n=20, eps=0.1, reps=1, seed=3),
                                         child_rng(3, 1))
        dm = distance_matrix(objs)
        failure = method.value_range[0] - 1.0
        objective = self.search_objective(objs, method, dm, monkeypatch)
        data = np.array([cholesky_encode(o) for o in objs.items])
        model = pca_fit(data, 1.0)

        def per_row(w):
            # the objective scored one candidate at a time
            try:
                obj = cholesky_decode(pca_decode(model, w))
            except DegenerateDecodeError:
                return failure
            return depth_of_query(query_distances(obj, objs), dm, method)

        vecs = data[rng.integers(0, 20, 8)] + 0.05 * rng.standard_normal((8, data.shape[1]))
        vecs[1, 1:] = 0.0  # rows 2-4 of the factor vanish
        vecs[4, -4:] = [1.0, 0.0, 0.0, 0.0]  # row 4 along row 1: singular
        vecs[6, -4:] = 0.0  # row 4 vanishes
        w = (vecs - model.mean) @ model.components.T
        want = np.array([per_row(x) for x in w])
        assert np.count_nonzero(want == failure) == 3
        assert objective(w).tobytes() == want.tobytes()
        assert np.concatenate([objective(x[None]) for x in w]).tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, -1.0])
    def test_block_objective_checks_every_query_row(self, bad, monkeypatch):
        objs, _ = gen_correlation_sample(CorrSimConfig(p=3, n=12, eps=0.1, reps=1, seed=5),
                                         child_rng(5, 1))
        objective = self.search_objective(objs, DepthMethod.MLD, None, monkeypatch)
        data = np.array([cholesky_encode(o) for o in objs.items])
        model = pca_fit(data, 1.0)
        w = (data[:4] - model.mean) @ model.components.T
        objective(w)
        # the query distances are made from the eigenvalues of each
        # candidate's congruences with the sample, which are checked where
        # they are made: a spoiled one of the last candidate is refused
        eigvalsh = np.linalg.eigvalsh

        def spoiled(m):
            w = eigvalsh(m)
            w[-1, 2, 0] = bad
            return w

        monkeypatch.setattr(np.linalg, "eigvalsh", spoiled)
        with pytest.raises(NotPositiveDefiniteError):
            objective(w)


    @staticmethod
    def mixed_block(objs, model):
        """PCA coordinates of 8 candidates near the sample, three of which
        do not decode (as in the per-row test above)."""
        rng = np.random.default_rng(11)
        data = np.array([cholesky_encode(o) for o in objs.items])
        vecs = data[rng.integers(0, len(data), 8)] + 0.05 * rng.standard_normal((8, data.shape[1]))
        vecs[1, 1:] = 0.0
        vecs[4, -4:] = [1.0, 0.0, 0.0, 0.0]
        vecs[6, -4:] = 0.0
        return (vecs - model.mean) @ model.components.T

    def test_block_objective_factors_each_block_once(self, monkeypatch):
        objs, _ = gen_correlation_sample(CorrSimConfig(p=4, n=20, eps=0.1, reps=1, seed=3),
                                         child_rng(3, 1))
        objective = self.search_objective(objs, DepthMethod.MOD3, None, monkeypatch)
        model = pca_fit(np.array([cholesky_encode(o) for o in objs.items]), 1.0)
        w = self.mixed_block(objs, model)
        calls = []
        eigh = np.linalg.eigh

        def counting(a):
            calls.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        for block in (w, w[:1], w[1:2]):
            calls.clear()
            objective(block)
            # the decode's positive-definiteness test, which the distances reuse
            assert len(calls) == 1

    def test_factored_distances_equal_the_entries(self):
        objs, _ = gen_correlation_sample(CorrSimConfig(p=4, n=20, eps=0.1, reps=1, seed=3),
                                         child_rng(3, 1))
        model = pca_fit(np.array([cholesky_encode(o) for o in objs.items]), 1.0)
        v = deepest._pca_decode_rows(model, self.mixed_block(objs, model))
        matrices, factors, reasons = deepest._decode_rows(v, 4)
        assert sum(r is None for r in reasons) == len(matrices) == 5
        got = spaces._spd_factored_row(factors, objs._table)
        entries = spaces._query_rows("corr", matrices, objs.items, objs._table)
        assert got.tobytes() == entries.tobytes()
        # and each row as the decoded object measures alone
        alone = [query_distances(cholesky_decode(x), objs)
                 for x, r in zip(v, reasons) if r is None]
        assert got.tobytes() == np.array(alone).tobytes()


# smallest eigenvalue 1.00003e-12 by eigvalsh, 9.99999e-13 by eigh: the two
# LAPACK routines fall on either side of the 1e-12 floor
CRAFTED_MATRIX = [[1.0, 0.8916399411754229, 0.1098573859361863],
                  [0.8916399411754229, 1.0, 0.5479581285910134],
                  [0.1098573859361863, 0.5479581285910134, 1.0]]
# packed Cholesky entries that decode to a matrix as close to the floor
CRAFTED_VECTOR = [1.0, 0.8916399411754229, 0.4527451990918163, 0.1098573859361863,
                  0.9939473601484309, 3.0386314035429796e-06]


def near_floor_scan(count):
    """C(t) = (1 - t) C0 + t I at 41 values of t within 2e-3 of 1e-12, for
    ``count`` singular 3 x 3 correlation matrices C0 of rank 2."""
    rng = np.random.default_rng(0)
    for _ in range(count):
        x = rng.standard_normal((3, 2))
        c0 = x @ x.T
        d = np.sqrt(np.diagonal(c0))
        c0 /= np.outer(d, d)
        for t in 1e-12 * (1 + np.linspace(-2e-3, 2e-3, 41)):
            yield (1 - t) * c0 + t * np.eye(3)


class TestPositiveDefiniteFloor:
    """A matrix that passes the positive-definiteness test of
    CorrelationMatrix or of the chart decode also passes the one of the
    distance evaluator."""

    SAMPLE = ObjectSet((CorrelationMatrix(np.eye(3)),
                        CorrelationMatrix([[1.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.0]])))

    def assert_accepted_alike(self, entries):
        try:
            x = CorrelationMatrix(entries)
        except NotPositiveDefiniteError:
            # refused as a query by the distance evaluator too
            with pytest.raises(NotPositiveDefiniteError):
                spd_distance(np.asarray(entries), np.eye(3))
            return False
        assert np.all(np.isfinite(query_distances(x, self.SAMPLE)))
        assert spd_distance(x, np.eye(3)) > 0.0
        distance_matrix(ObjectSet((x, *self.SAMPLE.items)))
        return True

    def assert_decoded_alike(self, v):
        matrices, _, reasons = deepest._decode_rows(np.asarray(v)[None], 3)
        if reasons[0] is not None:
            assert reasons[0] == ("decoded matrix is not a valid correlation: "
                                  "correlation matrix is not positive definite")
            with pytest.raises(DegenerateDecodeError, match="not positive definite"):
                cholesky_decode(v)
            return False
        distances = spaces._query_rows("corr", matrices, self.SAMPLE.items, self.SAMPLE._table)
        assert np.all(np.isfinite(distances))
        assert np.array_equal(cholesky_decode(v).entries, matrices[0])
        return True

    def test_crafted_inputs(self):
        self.assert_accepted_alike(CRAFTED_MATRIX)
        self.assert_decoded_alike(CRAFTED_VECTOR)

    def test_scan_near_the_floor(self):
        accepted, decoded = [], []
        for c in near_floor_scan(20):
            accepted.append(self.assert_accepted_alike(c))
            with suppress(NotPositiveDefiniteError):
                decoded.append(self.assert_decoded_alike(cholesky_encode(c)))
        # the scan straddles the floor
        assert 0 < sum(accepted) < len(accepted)
        assert 0 < sum(decoded) < len(decoded)

    def test_block_objective_scores_every_row(self, monkeypatch):
        objs, _ = gen_correlation_sample(CorrSimConfig(p=3, n=12, eps=0.1, reps=1, seed=5),
                                         child_rng(5, 1))
        method = DepthMethod.MLD
        objective = TestBlockEvaluation.search_objective(objs, method, None, monkeypatch)
        data = np.array([cholesky_encode(o) for o in objs.items])
        model = pca_fit(data, 1.0)
        vecs = [CRAFTED_VECTOR]
        for c in near_floor_scan(20):
            with suppress(NotPositiveDefiniteError):
                vecs.append(cholesky_encode(c))
        w = (np.array(vecs) - model.mean) @ model.components.T
        low, high = method.value_range
        for block in (w, *w[:, None]):
            values = objective(block)
            assert np.all((values == low - 1.0) | ((low <= values) & (values <= high)))


def _scored_blocks(block, box, cfg):
    """(offset, size) of each block a lone search from ``box`` scores."""
    sizes = []
    optimize_box(lambda xs: sizes.append(len(xs)) or block(xs), *box, cfg)
    return list(zip(np.cumsum([0, *sizes[:-1]]), sizes))


class TestLockstep:
    """The simplex runs a stack of starts in lockstep, scoring each step of
    every live start in one objective call; each start's point, value and
    evaluation count are bitwise those of its search alone."""

    @staticmethod
    def assert_as_alone(block, boxes, cfg):
        points, values, evals = optimize_box(block, *boxes, cfg)
        for t, box in enumerate(zip(*boxes)):
            point, value, count = optimize_box(block, *box, cfg)
            assert points[t].tobytes() == point.tobytes()
            assert np.float64(values[t]).tobytes() == np.float64(value).tobytes()
            assert evals[t] == count
        return evals

    def test_each_step_of_every_start_is_one_call(self):
        starts = np.array([BOX[0], -BOX[0], 0.5 * BOX[0]])
        boxes = (starts, np.full((3, 3), -1.0), np.full((3, 3), 1.0))
        cfg = OptimizerConfig(max_evaluations=60)
        evals = self.assert_as_alone(_noisy, boxes, cfg)
        sizes = []
        optimize_box(TestBlockEvaluation.logged(_noisy, sizes), *boxes, cfg)
        # the starts' values, then their initial simplexes (r + 1 = 4 each)
        assert sizes[:2] == [3, 12]
        assert sum(sizes) == sum(evals)
        alone = [len(_scored_blocks(_noisy, box, cfg)) for box in zip(*boxes)]
        assert len(sizes) == max(alone)

    @staticmethod
    def depth_search(method, monkeypatch):
        """The depth objective of a p = 4, n = 20 correlation sample, and the
        boxes of five starts: four sample objects, and a point that does
        not decode."""
        objs, _ = gen_correlation_sample(CorrSimConfig(p=4, n=20, eps=0.1, reps=1, seed=3),
                                         child_rng(3, 1))
        block = TestBlockEvaluation.search_objective(objs, method, None, monkeypatch)
        data = np.array([cholesky_encode(o) for o in objs.items])
        vecs = data[:5].copy()
        vecs[4, 1:] = 0.0  # rows 2-4 of the factor vanish
        model = pca_fit(data, 1.0)
        starts = (vecs - model.mean) @ model.components.T
        assert block(starts[4:])[0] == method.value_range[0] - 1.0
        return block, (starts, starts - 0.05, starts + 0.05)

    @pytest.mark.parametrize("method", [DepthMethod.MOD3, DepthMethod.MLD, DepthMethod.MSD,
                                        DepthMethod.MHD])
    def test_depth_search_starts_end_as_alone(self, method, monkeypatch):
        block, boxes = self.depth_search(method, monkeypatch)
        budget = 40
        evals = self.assert_as_alone(block, boxes, OptimizerConfig(max_evaluations=budget))
        if method is DepthMethod.MLD:
            # some starts stop on the simplex spread while others run on
            assert min(evals) < budget == max(evals)

    def test_budget_cut_inside_one_starts_shrink(self, monkeypatch):
        block, boxes = self.depth_search(DepthMethod.MLD, monkeypatch)
        r = boxes[0].shape[1]
        blocks = [_scored_blocks(block, box, OptimizerConfig(max_evaluations=200))
                  for box in zip(*boxes)]
        budget = 30

        def cut_in_shrink(scored):
            return any(at < budget < at + size for at, size in scored[2:] if size == r)

        def runs_past(scored):
            return sum(size for _, size in scored) > budget

        cut = [cut_in_shrink(scored) for scored in blocks]
        past = [runs_past(scored) for scored in blocks]
        # one start's budget ends inside a shrink, another's elsewhere
        assert any(cut) and any(p and not c for p, c in zip(past, cut))
        evals = self.assert_as_alone(block, boxes, OptimizerConfig(max_evaluations=budget))
        assert [e == budget for e in evals] == past


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

    @pytest.mark.parametrize("tsh", [0.0, 1.5])
    def test_tsh_checked_before_any_distance_work(self, tsh, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("distance matrix computed before validation")

        monkeypatch.setattr(deepest, "distance_matrix", fail)
        objs, _ = gen_correlation_sample(CorrSimConfig(p=3, n=10, eps=0.1, reps=1, seed=4),
                                         child_rng(4, 1))
        with pytest.raises(InvalidArgumentError, match="tsh"):
            deepest_out_of_sample(objs, DepthMethod.MLD, tsh=tsh)

    def test_other_samples_dm_rejected_before_the_fit(self, monkeypatch):
        # the matrix of an 8-object sample given for a 12-object one
        def fail(*args, **kwargs):
            raise AssertionError("PCA fitted before the distance matrix was checked")

        monkeypatch.setattr(deepest, "pca_fit", fail)
        objs, _ = gen_correlation_sample(CorrSimConfig(p=3, n=12, eps=0.1, reps=1, seed=4),
                                         child_rng(4, 1))
        dm = distance_matrix(ObjectSet(objs.items[:8]))
        with pytest.raises(InvalidArgumentError, match="12 x 12"):
            deepest_out_of_sample(objs, DepthMethod.MLD, dm=dm)

    def test_optimize_box_called_once_per_search(self, monkeypatch):
        # the search runs through the public optimize_box, which the
        # benchmark tracer wraps by name: one call with the stack of starts
        calls = []
        original = deepest.optimize_box

        def counting(block, start, *args, **kwargs):
            calls.append(np.shape(start))
            return original(block, start, *args, **kwargs)

        monkeypatch.setattr(deepest, "optimize_box", counting)
        objs, _ = gen_correlation_sample(CorrSimConfig(p=3, n=10, eps=0.1, reps=1, seed=4),
                                         child_rng(4, 1))
        for algorithm in ("simplex-box", "quasi-newton-box"):
            for starts in (1, 3):
                calls.clear()
                cfg = OptimizerConfig(algorithm=algorithm, max_evaluations=10, starts=starts)
                res = deepest_out_of_sample(objs, DepthMethod.MLD, cfg=cfg)
                assert len(calls) == 1 and calls[0][0] == starts
                assert 0 < res.evaluations <= 10 * starts

    def test_deterministic(self, rng):
        cfg = CorrSimConfig(p=3, n=10, eps=0.1, reps=1, seed=4)
        objs, _ = gen_correlation_sample(cfg, child_rng(4, 1))
        opt = OptimizerConfig(max_evaluations=30)
        r1 = deepest_out_of_sample(objs, DepthMethod.MLD, cfg=opt)
        r2 = deepest_out_of_sample(objs, DepthMethod.MLD, cfg=opt)
        assert r1.depth == r2.depth
        assert np.array_equal(r1.object.entries, r2.object.entries)

    def test_mhd_pair_probabilities_computed_once(self, monkeypatch):
        # the anchor-pair counts (n times the pair probabilities) depend on
        # the sample only, so one search builds its count table once however
        # many objective evaluations it makes
        calls = []
        original = depths._mhd_counts

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(depths, "_mhd_counts", counting)
        cfg = CorrSimConfig(p=3, n=10, eps=0.1, reps=1, seed=4)
        objs, _ = gen_correlation_sample(cfg, child_rng(4, 1))
        res = deepest_out_of_sample(objs, DepthMethod.MHD,
                                    cfg=OptimizerConfig(max_evaluations=20, starts=2))
        assert res.evaluations > 1
        assert len(calls) == 1
