"""Tests for the five sample depths, the subsampled estimator, and the
Euclidean simplex-volume oracle."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corr_dm, euclidean_dm, histogram_dm, line_dm, nonmetric_dm, sphere_dm
from metricdepth.core import DistanceMatrix
from metricdepth import deepest, depths
from metricdepth.depths import (
    DepthMethod,
    DepthReport,
    depth_all_sample,
    depth_of_query,
    depth_values,
    euclidean_certificate,
    euclidean_oja_depth,
    mhd_depth,
    mld_depth,
    mod2_depth,
    mod3_depth,
    mod3_depth_subsampled,
    mod3_lower_bounds,
    mod3_subsample_state,
    msd_depth,
    _sample_triple_ranks,
    _triple_indices,
    _unrank_triples,
)
from metricdepth.errors import (
    InsufficientSampleError,
    InvalidArgumentError,
    MetricViolationError,
)

LINE_024 = line_dm([0.0, 2.0, 4.0])


class TestMod3:
    def test_line_center_query(self):
        assert mod3_depth([2, 0, 2], LINE_024) == 1.0

    def test_line_offcenter_query(self):
        assert mod3_depth([1, 1, 3], LINE_024) == pytest.approx(1 / 7, abs=1e-12)

    def test_line_far_query(self):
        assert mod3_depth([10, 8, 6], LINE_024) == pytest.approx(1 / 961, abs=1e-12)

    def test_minimum_sample_size(self):
        with pytest.raises(InsufficientSampleError):
            mod3_depth([1, 1], line_dm([0.0, 1.0]))

    def test_query_length_checked(self):
        with pytest.raises(InvalidArgumentError):
            mod3_depth([1, 1], LINE_024)

    def test_line_reduces_to_product_kernel(self, rng):
        # on the line the kernel is 2 * prod |X_i - x|, so MOD3 has a
        # closed form usable as an independent oracle
        for _ in range(20):
            pts = rng.standard_normal(6)
            x = rng.standard_normal()
            dm = line_dm(pts)
            q = np.abs(pts - x)
            kernels = [
                2 * q[i] * q[j] * q[k]
                for i in range(6) for j in range(i + 1, 6) for k in range(j + 1, 6)
            ]
            expected = 1 / (1 + np.mean(kernels))
            assert mod3_depth(q, dm) == pytest.approx(expected, rel=1e-10)


class TestMod3Subsampled:
    def test_exhaustive_subsample_is_exact(self, rng):
        pts = rng.standard_normal(8)
        dm = line_dm(pts)
        q = np.abs(pts - 0.1)
        total = math.comb(8, 3)
        assert mod3_depth_subsampled(q, dm, total, seed=5) == mod3_depth(q, dm)

    def test_single_triple_sample(self):
        assert mod3_depth_subsampled([1, 1, 3], LINE_024, 1, seed=0) == mod3_depth(
            [1, 1, 3], LINE_024
        )

    def test_close_to_exact_for_median_point(self, rng):
        pts = rng.standard_normal(50)
        dm = line_dm(pts)
        median = np.median(pts)
        q = np.abs(pts - median)
        exact = mod3_depth(q, dm)
        approx = mod3_depth_subsampled(q, dm, 2000, seed=11)
        assert abs(approx - exact) < 0.05

    def test_deterministic_given_seed(self, rng):
        pts = rng.standard_normal(30)
        dm = line_dm(pts)
        q = np.abs(pts + 0.3)
        a = mod3_depth_subsampled(q, dm, 500, seed=77)
        b = mod3_depth_subsampled(q, dm, 500, seed=77)
        assert a == b
        assert a != mod3_depth_subsampled(q, dm, 500, seed=78)

    def test_oversized_subsample_rejected(self):
        with pytest.raises(InvalidArgumentError):
            mod3_depth_subsampled([1, 1, 3], LINE_024, 2, seed=0)

    def test_unranking_matches_materialized_indices(self, rng):
        for n in (3, 4, 5, 40):
            got = _unrank_triples(np.arange(math.comb(n, 3)), n)
            for a, b in zip(got, _triple_indices(n)):
                assert np.array_equal(a, b)
        # C(320, 3) > 5M: too many triples to build the index table here
        n = 320
        ranks = _sample_triple_ranks(math.comb(n, 3), 2000, rng)
        triples = list(zip(*_unrank_triples(ranks, n)))
        assert all(0 <= i < j < k < n for i, j, k in triples)
        assert all(s < t for s, t in zip(triples, triples[1:]))
        assert [math.comb(n, 3) - math.comb(n - i, 3) + math.comb(n - 1 - i, 2)
                - math.comb(n - j, 2) + k - j - 1 for i, j, k in triples] == ranks

    def test_state_scores_sample_as_per_query(self, rng, monkeypatch):
        dm = euclidean_dm(rng.standard_normal((20, 3)))
        per = [mod3_depth_subsampled(row, dm, 50, seed=4) for row in dm.values]
        # 50 triples per row: blocks of 1 row, of 4 rows, and one block
        for target in (1, 200, depths._BLOCK_TARGET):
            monkeypatch.setattr(depths, "_BLOCK_TARGET", target)
            state = mod3_subsample_state(dm, 50, seed=4)
            assert np.array_equal(depth_values(state, DepthMethod.MOD3), per)


class TestMod3LowerBound:
    def test_matches_triple_sum(self, rng):
        for n in (3, 4, 7, 12):
            v = rng.uniform(0.0, 3.0, (n, n))
            v = v + v.T
            np.fill_diagonal(v, 0.0)
            want = [2 * sum(v[c, i] * v[c, j] * v[c, k] for i, j, k in combinations(range(n), 3))
                    / math.comb(n, 3) for c in range(n)]
            assert mod3_lower_bounds(v) == pytest.approx(want, rel=1e-13)

    def test_bounds_mean_kernel_on_certified_samples(self, rng):
        samples = [histogram_dm(n, seed) for n, seed in [(3, 0), (8, 1), (25, 2), (40, 3)]]
        samples += [euclidean_dm(rng.standard_normal((n, dim)))
                    for n, dim in [(3, 1), (8, 2), (25, 3), (40, 1), (40, 2)]]
        for dm in samples:
            assert euclidean_certificate(dm)
            state = depths.sample_state(dm, DepthMethod.MOD3)
            mean = depths._mod3_terms(state, state.values).mean(axis=1)
            assert np.all(mod3_lower_bounds(dm) <= mean * (1 + deepest._ELIMINATION_MARGIN))

    def test_certificate_accepts_euclidean_kinds(self, rng):
        for n, seed in [(4, 0), (25, 1), (60, 2)]:
            assert euclidean_certificate(histogram_dm(n, seed))
        for dim in (1, 2, 5):
            assert euclidean_certificate(euclidean_dm(rng.standard_normal((30, dim))))
        assert euclidean_certificate(DistanceMatrix(np.zeros((4, 4))))

    def test_certificate_rejects_other_kinds(self):
        for n, seed in [(20, 1), (40, 2)]:
            assert not euclidean_certificate(corr_dm(n, seed))
            assert not euclidean_certificate(sphere_dm(n, seed))
        assert not euclidean_certificate(nonmetric_dm())

    def test_certificate_rejects_malformed_arrays(self):
        v = line_dm([0.0, 1.0, 3.0]).values
        for bad in (-v, v + np.eye(3), np.triu(v), np.where(v == 3.0, np.inf, v),
                    np.where(v == 3.0, np.nan, v)):
            assert not euclidean_certificate(bad)


class TestMod2:
    def test_identically_one_on_line(self, rng):
        for _ in range(20):
            pts = rng.standard_normal(5) * rng.choice([0.01, 1.0, 100.0])
            x = rng.standard_normal()
            assert mod2_depth(np.abs(pts - x), line_dm(pts)) == 1.0

    def test_single_pair_plane_example(self):
        dm = euclidean_dm([[0.0, 0.0], [1.0, 0.0]])
        assert mod2_depth([1.0, np.sqrt(2.0)], dm) == pytest.approx(0.5, abs=1e-12)

    def test_all_coincident(self):
        dm = DistanceMatrix(np.zeros((4, 4)))
        assert mod2_depth(np.zeros(4), dm) == 1.0

    def test_minimum_sample(self):
        with pytest.raises(InsufficientSampleError):
            mod2_depth([0.0], DistanceMatrix(np.zeros((1, 1))))


class TestMld:
    def test_center_of_three(self):
        dm = line_dm([0.0, 1.0, 2.0])
        assert mld_depth([1, 0, 1], dm) == pytest.approx(1 / 3)

    def test_endpoint_of_three(self):
        dm = line_dm([0.0, 1.0, 2.0])
        assert mld_depth([0, 1, 2], dm) == 0.0

    def test_far_query_is_zero(self, rng):
        pts = rng.standard_normal(10)
        dm = line_dm(pts)
        q = np.abs(pts - 1e6)
        assert mld_depth(q, dm) == 0.0

    def test_ties_count_against_depth(self):
        # strict inequality: equilateral distances give zero depth
        dm = DistanceMatrix([[0, 1], [1, 0]])
        assert mld_depth([1.0, 1.0], dm) == 0.0


class TestMsd:
    def test_between_two_points(self):
        dm = line_dm([0.0, 2.0])
        assert msd_depth([1.0, 1.0], dm) == 2.0

    def test_outside_two_points(self):
        dm = line_dm([0.0, 2.0])
        assert msd_depth([5.0, 3.0], dm) == 0.0

    def test_zero_distance_indicator(self):
        dm = line_dm([0.0, 2.0])
        assert msd_depth([0.0, 2.0], dm) == 1.0


class TestMhd:
    def test_center_of_three(self):
        dm = line_dm([0.0, 1.0, 2.0])
        assert mhd_depth([1, 0, 1], dm) == pytest.approx(2 / 3)

    def test_single_object_sample(self):
        dm = DistanceMatrix(np.zeros((1, 1)))
        assert mhd_depth([0.0], dm) == 1.0

    def test_far_query(self):
        dm = line_dm([0.0, 1.0, 2.0])
        assert mhd_depth([10, 9, 8], dm) == pytest.approx(1 / 3)

    def test_brute_force_oracle(self, rng):
        # enumerate all ordered anchor pairs directly
        for _ in range(20):
            pts = rng.standard_normal((7, 2))
            x = rng.standard_normal(2)
            q = np.linalg.norm(pts - x, axis=1)
            dm = euclidean_dm(pts)
            v = dm.values
            best = 1.0
            found = False
            for a1 in range(7):
                for a2 in range(7):
                    if a1 != a2 and q[a1] <= q[a2]:
                        found = True
                        best = min(best, np.mean(v[:, a1] <= v[:, a2]))
            assert found
            assert mhd_depth(q, dm) == pytest.approx(best, abs=0)

    def test_pair_probabilities_independent_of_block_size(self, rng, monkeypatch):
        # integer coordinates give tied distances; at n=12 the targets give
        # blocks of 1 row, of 11 rows and one block of all 12
        dm = euclidean_dm(rng.integers(0, 4, size=(12, 2)))
        got = []
        for target in (1, 200, depths._BLOCK_TARGET):
            monkeypatch.setattr(depths, "_BLOCK_TARGET", target)
            got.append(depths.mhd_pair_probabilities(dm))
        assert np.array_equal(got[0], got[1]) and np.array_equal(got[0], got[2])


class TestEuclideanOja:
    def test_plane_hand_example(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert euclidean_oja_depth(pts, [0.0, 0.0]) == pytest.approx(0.75, abs=1e-14)

    def test_coincident_points(self):
        pts = np.zeros((4, 2))
        assert euclidean_oja_depth(pts, [0.0, 0.0]) == 1.0

    def test_needs_p_points(self):
        with pytest.raises(InsufficientSampleError):
            euclidean_oja_depth(np.zeros((2, 3)), [0.0, 0.0, 0.0])

    def test_plane_equivalence_with_mod2(self, rng):
        # the order-2 kernel depth coincides with the simplex-volume depth
        # in the Euclidean plane
        for _ in range(100):
            n = int(rng.integers(2, 9))
            pts = rng.standard_normal((n, 2))
            x = rng.standard_normal(2)
            q = np.linalg.norm(pts - x, axis=1)
            assert mod2_depth(q, euclidean_dm(pts)) == pytest.approx(
                euclidean_oja_depth(pts, x), abs=1e-10
            )

    def test_r3_detb3_is_squared_simplex_det(self, rng):
        # in R^3: det B3 >= 0 and sqrt(det B3) equals |det A|, so the
        # order-3 depth differs from the classical depth only by the
        # correction term under the square root
        from metricdepth.core import b3_matrix

        for _ in range(100):
            pts = rng.standard_normal((3, 3))
            x = rng.standard_normal(3)
            dx = np.linalg.norm(pts - x, axis=1)
            dpair = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
            det_b3 = np.linalg.det(b3_matrix(dx, dpair))
            det_a = abs(np.linalg.det((pts - x).T))
            assert det_b3 >= -1e-10
            assert np.sqrt(max(det_b3, 0.0)) == pytest.approx(
                det_a, rel=1e-7, abs=1e-9
            )


class TestFullSample:
    def test_line_024_mod3_all_ones(self):
        report = depth_all_sample(LINE_024, DepthMethod.MOD3)
        assert np.array_equal(report.values, [1.0, 1.0, 1.0])

    def test_line_mod2_all_ones(self, rng):
        dm = line_dm(rng.standard_normal(12))
        assert np.all(depth_values(dm, DepthMethod.MOD2) == 1.0)

    @pytest.mark.parametrize("method", list(DepthMethod))
    def test_matches_per_query_bitwise(self, method, rng, monkeypatch):
        pts = rng.standard_normal((20, 3))
        dm = euclidean_dm(pts)
        per = np.array([depth_of_query(dm.values[i], dm, method) for i in range(20)])
        # the default target scores all 20 objects in one block; 1500
        # elements splits them into blocks of 1 (MOD3, 1140 triples), 7
        # (pair methods, 190 pairs) and 3 rows (MHD, 400 anchor pairs)
        for target in (depths._BLOCK_TARGET, 1500):
            monkeypatch.setattr(depths, "_BLOCK_TARGET", target)
            assert np.array_equal(depth_values(dm, method), per)

    def test_mod3_metric_violation_raises(self):
        dm = nonmetric_dm()
        with pytest.raises(MetricViolationError):
            depth_values(dm, DepthMethod.MOD3)
        with pytest.raises(MetricViolationError):
            depth_of_query(dm.values[0], dm, DepthMethod.MOD3)

    def test_report_carries_timing(self):
        report = depth_all_sample(LINE_024, DepthMethod.MLD)
        assert report.elapsed_seconds >= 0.0
        assert report.method is DepthMethod.MLD

    def test_report_range_validated(self):
        with pytest.raises(InvalidArgumentError):
            DepthReport(DepthMethod.MOD3, np.array([1.5]), 0.0)


class TestInvarianceProperties:
    @pytest.mark.parametrize("method", list(DepthMethod))
    def test_label_permutation_invariance(self, method, rng):
        # indicator-based depths are exactly invariant; kernel-based means
        # accumulate in a different order, so match to 1 ulp scale
        pts = rng.standard_normal((12, 2))
        x = rng.standard_normal(2)
        q = np.linalg.norm(pts - x, axis=1)
        dm = euclidean_dm(pts)
        perm = rng.permutation(12)
        dm_p = DistanceMatrix(dm.values[np.ix_(perm, perm)])
        before = depth_of_query(q, dm, method)
        after = depth_of_query(q[perm], dm_p, method)
        if method in (DepthMethod.MLD, DepthMethod.MHD):
            assert before == after
        else:
            assert before == pytest.approx(after, rel=1e-12)

    @pytest.mark.parametrize("method", list(DepthMethod))
    def test_isometry_preserves_value_multiset(self, method, rng):
        pts = rng.standard_normal((10, 3))
        dm = euclidean_dm(pts)
        perm = rng.permutation(10)
        dm_p = DistanceMatrix(dm.values[np.ix_(perm, perm)])
        a = np.sort(depth_values(dm, method))
        b = np.sort(depth_values(dm_p, method))
        assert np.allclose(a, b, rtol=1e-12, atol=0)

    def test_monotone_outlyingness_on_line(self, rng):
        pts = rng.standard_normal(40)
        dm = line_dm(pts)
        grid = np.max(pts) + np.linspace(0.5, 30.0, 25)
        mod3_vals = [mod3_depth(np.abs(pts - x), dm) for x in grid]
        mld_vals = [mld_depth(np.abs(pts - x), dm) for x in grid]
        msd_vals = [msd_depth(np.abs(pts - x), dm) for x in grid]
        assert all(a >= b for a, b in zip(mod3_vals, mod3_vals[1:]))
        assert all(a >= b for a, b in zip(mld_vals, mld_vals[1:]))
        # far outside the hull the spatial depth approaches its minimum
        assert msd_vals[-1] < 0.01

    def test_scaling_distances_preserves_values_or_order(self, rng):
        # indicator depths are scale-invariant; kernel depths transform
        # monotonically, preserving the ranking
        pts = rng.standard_normal((9, 2))
        dm = euclidean_dm(pts)
        dm_scaled = DistanceMatrix(dm.values * 3.7)
        for method in DepthMethod:
            v1 = depth_values(dm, method)
            v2 = depth_values(dm_scaled, method)
            if method in (DepthMethod.MLD, DepthMethod.MHD, DepthMethod.MSD):
                assert np.allclose(v1, v2, rtol=1e-12)
            else:
                assert np.array_equal(np.argsort(-v1, kind="stable"),
                                      np.argsort(-v2, kind="stable"))


@st.composite
def euclidean_config(draw):
    n = draw(st.integers(min_value=3, max_value=10))
    p = draw(st.integers(min_value=1, max_value=3))
    flat = draw(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=n * p + p, max_size=n * p + p,
        )
    )
    arr = np.asarray(flat)
    return arr[: n * p].reshape(n, p), arr[n * p:]


class TestRangeInvariantsHypothesis:
    @settings(max_examples=200, deadline=None)
    @given(config=euclidean_config())
    def test_all_methods_within_range(self, config):
        pts, x = config
        q = np.linalg.norm(pts - x, axis=1)
        dm = euclidean_dm(pts)
        for method in DepthMethod:
            value = depth_of_query(q, dm, method)
            lo, hi = method.value_range
            assert lo <= value <= hi
