"""Tests for the five sample depths and the subsampled estimator, against
the reference depths of ``reference.py``."""

import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    corr_dm,
    euclidean_dm,
    histogram_dm,
    line_dm,
    nonmetric_dm,
    sphere_dm,
    tile_terms,
)
from metricdepth.cli import main
from metricdepth.core import DistanceMatrix, write_distance_csv
from metricdepth.deepest import deepest_in_sample
from metricdepth import depths
from metricdepth.depths import (
    DET2_TOL,
    KERNEL_RADICAND_TOL,
    DepthMethod,
    DepthReport,
    depth_of_query,
    depth_values,
    euclidean_certificate,
    mod3_depth_subsampled,
    mod3_lower_bounds,
    mod3_subsample_state,
    _sample_triple_ranks,
    _pair_positions,
    _triple_pairs,
    _unrank_triples,
)
from metricdepth.errors import (
    InsufficientSampleError,
    InvalidArgumentError,
    MetricViolationError,
)
from reference import (
    euclidean_oja_depth,
    floyd_sample,
    mhd_depth_brute_force,
    mod3_depth_brute_force,
)

LINE_024 = line_dm([0.0, 2.0, 4.0])


class TestMod3:
    def test_line_center_query(self):
        assert depth_of_query([2, 0, 2], LINE_024, DepthMethod.MOD3) == 1.0

    def test_line_offcenter_query(self):
        assert depth_of_query([1, 1, 3], LINE_024, DepthMethod.MOD3) == pytest.approx(
            1 / 7, abs=1e-12)

    def test_line_far_query(self):
        assert depth_of_query([10, 8, 6], LINE_024, DepthMethod.MOD3) == pytest.approx(
            1 / 961, abs=1e-12)

    def test_minimum_sample_size(self):
        with pytest.raises(InsufficientSampleError):
            depth_of_query([1, 1], line_dm([0.0, 1.0]), DepthMethod.MOD3)

    def test_query_length_checked(self):
        with pytest.raises(InvalidArgumentError):
            depth_of_query([1, 1], LINE_024, DepthMethod.MOD3)

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
            assert depth_of_query(q, dm, DepthMethod.MOD3) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("make", [corr_dm, sphere_dm])
    def test_matches_triple_by_triple_oracle(self, make):
        # the first 10 objects are the sample; every object, the last four
        # off the sample, is a query
        v = make(14, 3).values
        dm = DistanceMatrix(v[:10, :10])
        for q in v[:, :10]:
            assert depth_of_query(q, dm, DepthMethod.MOD3) == pytest.approx(
                mod3_depth_brute_force(q, dm), rel=1e-12)


class TestMod3Subsampled:
    def test_exhaustive_subsample_is_exact(self, rng):
        pts = rng.standard_normal(8)
        dm = line_dm(pts)
        q = np.abs(pts - 0.1)
        total = math.comb(8, 3)
        exact = depth_of_query(q, dm, DepthMethod.MOD3)
        assert mod3_depth_subsampled(q, dm, total, seed=5) == exact

    def test_single_triple_sample(self):
        assert mod3_depth_subsampled([1, 1, 3], LINE_024, 1, seed=0) == depth_of_query(
            [1, 1, 3], LINE_024, DepthMethod.MOD3)

    def test_close_to_exact_for_median_point(self, rng):
        pts = rng.standard_normal(50)
        dm = line_dm(pts)
        median = np.median(pts)
        q = np.abs(pts - median)
        exact = depth_of_query(q, dm, DepthMethod.MOD3)
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
            want = _pair_positions(*np.array(list(combinations(range(n), 3))).T, n)
            got = _pair_positions(*_unrank_triples(np.arange(math.comb(n, 3)), n), n)
            for a, b, c in zip(want, got, _triple_pairs(n)):
                assert np.array_equal(a, b) and np.array_equal(a, c)
        # C(320, 3) > 5M: too many triples to build the index table here
        n = 320
        ranks = _sample_triple_ranks(math.comb(n, 3), 2000, rng)
        triples = list(zip(*_unrank_triples(ranks, n)))
        assert all(0 <= i < j < k < n for i, j, k in triples)
        assert all(s < t for s, t in zip(triples, triples[1:]))
        assert [math.comb(n, 3) - math.comb(n - i, 3) + math.comb(n - 1 - i, 2)
                - math.comb(n - j, 2) + k - j - 1 for i, j, k in triples] == ranks

    @pytest.mark.parametrize("total, m", [(34220, 20000), (4060, 20), (4060, 4060),
                                          (10**6, 5000), (1, 1)])
    def test_draw_matches_the_scalar_floyd_loop(self, total, m):
        for seed in range(3):
            got = _sample_triple_ranks(total, m, np.random.default_rng(seed))
            assert got == floyd_sample(total, m, np.random.default_rng(seed))

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
            mean = tile_terms(state, state.values).mean(axis=1)
            assert np.all(mod3_lower_bounds(dm) <= mean * (1 + depths._ELIMINATION_MARGIN))

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
            assert depth_of_query(np.abs(pts - x), line_dm(pts), DepthMethod.MOD2) == 1.0

    def test_single_pair_plane_example(self):
        dm = euclidean_dm([[0.0, 0.0], [1.0, 0.0]])
        assert depth_of_query([1.0, np.sqrt(2.0)], dm, DepthMethod.MOD2) == pytest.approx(
            0.5, abs=1e-12)

    def test_all_coincident(self):
        dm = DistanceMatrix(np.zeros((4, 4)))
        assert depth_of_query(np.zeros(4), dm, DepthMethod.MOD2) == 1.0

    def test_minimum_sample(self):
        with pytest.raises(InsufficientSampleError):
            depth_of_query([0.0], DistanceMatrix(np.zeros((1, 1))), DepthMethod.MOD2)


class TestMld:
    def test_center_of_three(self):
        dm = line_dm([0.0, 1.0, 2.0])
        assert depth_of_query([1, 0, 1], dm, DepthMethod.MLD) == pytest.approx(1 / 3)

    def test_endpoint_of_three(self):
        dm = line_dm([0.0, 1.0, 2.0])
        assert depth_of_query([0, 1, 2], dm, DepthMethod.MLD) == 0.0

    def test_far_query_is_zero(self, rng):
        pts = rng.standard_normal(10)
        dm = line_dm(pts)
        q = np.abs(pts - 1e6)
        assert depth_of_query(q, dm, DepthMethod.MLD) == 0.0

    def test_ties_count_against_depth(self):
        # strict inequality: equilateral distances give zero depth
        dm = DistanceMatrix([[0, 1], [1, 0]])
        assert depth_of_query([1.0, 1.0], dm, DepthMethod.MLD) == 0.0


class TestMsd:
    def test_between_two_points(self):
        dm = line_dm([0.0, 2.0])
        assert depth_of_query([1.0, 1.0], dm, DepthMethod.MSD) == 2.0

    def test_outside_two_points(self):
        dm = line_dm([0.0, 2.0])
        assert depth_of_query([5.0, 3.0], dm, DepthMethod.MSD) == 0.0

    def test_zero_distance_indicator(self):
        dm = line_dm([0.0, 2.0])
        assert depth_of_query([0.0, 2.0], dm, DepthMethod.MSD) == 1.0


class TestMhd:
    def test_center_of_three(self):
        dm = line_dm([0.0, 1.0, 2.0])
        assert depth_of_query([1, 0, 1], dm, DepthMethod.MHD) == pytest.approx(2 / 3)

    def test_single_object_sample(self):
        dm = DistanceMatrix(np.zeros((1, 1)))
        assert depth_of_query([0.0], dm, DepthMethod.MHD) == 1.0

    def test_far_query(self):
        dm = line_dm([0.0, 1.0, 2.0])
        assert depth_of_query([10, 9, 8], dm, DepthMethod.MHD) == pytest.approx(1 / 3)

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
            assert depth_of_query(q, dm, DepthMethod.MHD) == pytest.approx(best, abs=0)

    def test_pair_probabilities_independent_of_block_size(self, rng, monkeypatch):
        # integer coordinates give tied distances; at n=12 the targets give
        # blocks of 1 row, of 11 rows and one block of all 12
        dm = euclidean_dm(rng.integers(0, 4, size=(12, 2)))
        got = []
        for target in (1, 200, depths._BLOCK_TARGET):
            monkeypatch.setattr(depths, "_BLOCK_TARGET", target)
            got.append(depths.mhd_pair_probabilities(dm))
        assert np.array_equal(got[0], got[1]) and np.array_equal(got[0], got[2])

    @pytest.mark.parametrize("cut", ["rows", "columns", "row", "stacked"])
    def test_pair_probabilities_refuse_a_non_square_matrix(self, cut):
        # a bare ValueError once
        v = euclidean_dm(np.random.default_rng(3).standard_normal((12, 2))).values
        bad = {"rows": v[:10], "columns": v[:, :10], "row": v[0], "stacked": v[None]}[cut]
        with pytest.raises(InvalidArgumentError, match="square"):
            depths.mhd_pair_probabilities(bad)

    def test_single_object_sample_everywhere(self):
        v = np.zeros((1, 1))
        assert depth_values(v, DepthMethod.MHD).tolist() == [1.0]
        res = deepest_in_sample(v, DepthMethod.MHD)
        assert (res.index, res.depth) == (0, 1.0)
        assert depths.mhd_pair_probabilities(v).tolist() == [[1.0]]

    @pytest.mark.parametrize("target", [200, 1000, depths._BLOCK_TARGET])
    def test_tied_distances_match_the_reference(self, target, monkeypatch):
        # points on a 4 x 4 grid: many distances tie, and ties qualify a pair
        # and count toward its probability. At n=30 the targets give
        # indicator blocks of 1 row, of 8 rows and one block of all 30
        pts = np.random.default_rng(11).integers(0, 4, (30, 2)).astype(float)
        v = euclidean_dm(pts).values
        queries = np.concatenate([v, np.linalg.norm(
            np.random.default_rng(12).integers(0, 4, (9, 2))[:, None] - pts, axis=2)])
        want = np.array([mhd_depth_brute_force(q, v) for q in queries])
        monkeypatch.setattr(depths, "_BLOCK_TARGET", target)
        state = depths.sample_state(v, DepthMethod.MHD)
        blocks = depths._mhd_indicators(queries, np.uint8)
        assert len(list(blocks)) == {200: 39, 1000: 5}.get(target, 1)
        assert np.array_equal(depth_values(state, DepthMethod.MHD), want[:30])
        assert np.array_equal(depths._depths(state, queries), want)
        assert [depth_of_query(q, state, DepthMethod.MHD) for q in queries] == want.tolist()

    def test_counts_of_more_than_255(self):
        # counts of a sample of 260 need two bytes: counted in one, they wrap
        v = euclidean_dm(np.random.default_rng(13).standard_normal((260, 2))).values
        state = depths.sample_state(v, DepthMethod.MHD)
        assert state.table.dtype == np.uint16 and state.table.max() == 260
        values = depth_values(state, DepthMethod.MHD)
        off = 0.5 * (v[7] + v[8])
        for q, got in ((v[0], values[0]), (v[131], values[131]),
                       (off, depth_of_query(off, v, DepthMethod.MHD))):
            assert got == mhd_depth_brute_force(q, v)
        assert values.tolist() == [depth_of_query(q, state, DepthMethod.MHD) for q in v]

    def test_group_picks_across_several_indicator_blocks(self, monkeypatch):
        # chunks of one group each, whose indicators span several blocks,
        # pick as one chunk of every group in one block does
        v = corr_dm(30, 14).values
        rows = np.array([np.sort(np.random.default_rng(s).permutation(30)[:12]) for s in range(6)])
        want = [deepest_in_sample(v[np.ix_(g, g)], DepthMethod.MHD).index for g in rows]
        got = []
        for target, blocks in ((20, 12), (depths._BLOCK_TARGET, 1)):
            monkeypatch.setattr(depths, "_BLOCK_TARGET", target)
            assert len(list(depths._mhd_indicators(v[None, :12, :12], np.uint8))) == blocks
            got.append(depths._group_picks(v, [rows], DepthMethod.MHD)[0].tolist())
        assert got == [want, want]


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
            assert depth_of_query(q, euclidean_dm(pts), DepthMethod.MOD2) == pytest.approx(
                euclidean_oja_depth(pts, x), abs=1e-10
            )

    def test_r3_detb3_is_squared_simplex_det(self, rng):
        # in R^3: det B3 >= 0 and sqrt(det B3) equals |det A|, so the MOD3
        # kernel sqrt(det B3 + 4 prod) differs from the classical simplex
        # volume only by the correction term under the square root
        for _ in range(100):
            pts = rng.standard_normal((3, 3))
            x = rng.standard_normal(3)
            q = np.linalg.norm(pts - x, axis=1)[None]
            state = depths.sample_state(euclidean_dm(pts), DepthMethod.MOD3)
            det_b3 = np.linalg.det(depths._mod3_inputs(state, q)["c"].reshape(3, 3))
            det_a = abs(np.linalg.det((pts - x).T))
            assert det_b3 >= -1e-10
            assert np.sqrt(max(det_b3, 0.0)) == pytest.approx(det_a, rel=1e-7, abs=1e-9)
            assert tile_terms(state, q)[0, 0] == pytest.approx(
                np.sqrt(det_a ** 2 + 4 * np.prod(q * q)), rel=1e-9)


class TestFullSample:
    def test_line_024_mod3_all_ones(self):
        assert np.array_equal(depth_values(LINE_024, DepthMethod.MOD3), [1.0, 1.0, 1.0])

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

    @pytest.mark.parametrize("cut", ["rows", "columns", "row", "stacked"])
    @pytest.mark.parametrize("method", list(DepthMethod))
    def test_non_square_matrix_refused_before_any_state(self, method, cut, monkeypatch):
        # 10 rows of a 12-object matrix once gave MOD2, MLD and MSD depths
        # read off its first 10 columns, and a bare ValueError for the others
        v = euclidean_dm(np.random.default_rng(3).standard_normal((12, 2))).values
        bad = {"rows": v[:10], "columns": v[:, :10], "row": v[0], "stacked": v[None]}[cut]

        def fail(*args):
            raise AssertionError("state built from a non-square matrix")

        for builder in ("_triple_pairs", "_pair_indices", "_mhd_counts"):
            monkeypatch.setattr(depths, builder, fail)
        for call in (lambda: depth_values(bad, method),
                     lambda: deepest_in_sample(bad, method),
                     lambda: depth_of_query(v[0, :10], bad, method)):
            with pytest.raises(InvalidArgumentError, match="square"):
                call()
        if method is DepthMethod.MOD3:
            with pytest.raises(InvalidArgumentError, match="square"):
                mod3_subsample_state(bad, 5, seed=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("method", list(DepthMethod))
    def test_non_finite_matrix_refused_before_any_state(self, method, bad, monkeypatch):
        # with NaN, this array once gave MLD depths [0, 0, 0], MSD [nan,
        # nan, nan], MOD2 [1, 1, 1] and MHD [1/3, 1/3, 1/3], and an MHD pick
        v = np.array([[0.0, 1.0, bad], [1.0, 0.0, 2.0], [bad, 2.0, 0.0]])

        def fail(*args):
            raise AssertionError("state built from a non-finite matrix")

        for builder in ("_triple_pairs", "_pair_indices", "_mhd_counts"):
            monkeypatch.setattr(depths, builder, fail)
        for call in (depth_values, deepest_in_sample, depths.sample_state):
            with pytest.raises(InvalidArgumentError, match="finite"):
                call(v, method)

    def test_mod3_metric_violation_raises(self):
        dm = nonmetric_dm()
        with pytest.raises(MetricViolationError):
            depth_values(dm, DepthMethod.MOD3)
        with pytest.raises(MetricViolationError):
            depth_of_query(dm.values[0], dm, DepthMethod.MOD3)

    @pytest.mark.parametrize("scale", [1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3])
    def test_mod3_metric_violation_raises_at_any_scale(self, scale):
        # radicands scale as distance^6, and so does their tolerance
        dm = DistanceMatrix(nonmetric_dm().values * scale)
        with pytest.raises(MetricViolationError):
            depth_values(dm, DepthMethod.MOD3)
        with pytest.raises(MetricViolationError):
            depth_of_query(dm.values[0], dm, DepthMethod.MOD3)

    @pytest.mark.parametrize("scale", [1e-6, 1e6])
    @pytest.mark.parametrize("make", [corr_dm, sphere_dm])
    def test_mod3_metric_samples_pass_at_any_scale(self, make, scale):
        # every radicand of the full pass is checked; round-off stays far
        # inside the tolerance at small and large distances alike
        dm = DistanceMatrix(make(20, 3).values * scale)
        assert np.all(np.isfinite(depth_values(dm, DepthMethod.MOD3)))

    def test_report_carries_timing(self, tmp_path):
        # the full-sample report of ``metricdepth depth``
        write_distance_csv(tmp_path / "dm.csv", LINE_024)
        out = tmp_path / "report.json"
        assert main(["depth", "--dm", str(tmp_path / "dm.csv"), "--method", "MLD",
                     "--timings", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["elapsed_seconds"] >= 0.0
        assert report["method"] == "MLD"
        assert report["values"] == list(depth_values(LINE_024, DepthMethod.MLD))

    def test_report_range_validated(self):
        with pytest.raises(InvalidArgumentError):
            DepthReport(DepthMethod.MOD3, np.array([1.5]), 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("method", list(DepthMethod))
    def test_report_refuses_non_finite_values(self, method, bad):
        # NaN fails both range comparisons, so it once passed the check
        with pytest.raises(InvalidArgumentError, match="finite"):
            DepthReport(method, [bad, 0.5], 0.0)
        assert DepthReport(method, [0.0, 0.5], 0.0).values.tolist() == [0.0, 0.5]


# the whole-row reduction of each summing method, applied to one query's
# full row of terms: what a tile's partials, added along the summation tree,
# must equal
_REDUCE = {
    DepthMethod.MOD3: lambda t: 1.0 / (1.0 + t.mean(axis=1)),
    DepthMethod.MOD2: lambda t: 1.0 / (1.0 + t.mean(axis=1)),
    DepthMethod.MLD: lambda t: np.count_nonzero(t, axis=1) / t.shape[1],
    DepthMethod.MSD: lambda t: 1.0 - 0.5 * t.mean(axis=1),
}


def _full_row_reference(dm, method):
    """Every sample object's depth, from its whole row of terms, or for MHD
    from the brute-force reference, which shares no code with the package."""
    v = getattr(dm, "values", dm)
    if method is DepthMethod.MHD:
        return np.array([mhd_depth_brute_force(row, v) for row in v])
    state = depths.sample_state(dm, method)
    return np.concatenate([_REDUCE[method](tile_terms(state, row[None, :]))
                           for row in state.values])


class TestTiles:
    @pytest.mark.parametrize("size", [1, 7, 8, 128, 129, 300, 1001, 4060, 54740, 100003])
    def test_leaf_sums_join_to_numpy_sum(self, size, rng, monkeypatch):
        row = rng.standard_normal(size) * np.exp(4 * rng.standard_normal(size))
        for target in (1, 200, 1500, depths._BLOCK_TARGET):
            monkeypatch.setattr(depths, "_BLOCK_TARGET", target)
            leaves = depths._leaves(0, size)
            assert leaves[0][0] == 0 and leaves[-1][1] == size
            assert all(a[1] == b[0] for a, b in zip(leaves, leaves[1:]))
            assert all(hi - lo <= max(target, 128) for lo, hi in leaves)
            sums = iter([np.add.reduce(row[lo:hi]) for lo, hi in leaves])
            assert depths._fold(size, sums) == np.add.reduce(row)

    @pytest.mark.parametrize("method", list(DepthMethod))
    def test_matches_full_row_reference(self, method, monkeypatch):
        # n=30 has 435 pairs, 870 anchor pairs and 4060 triples, none a
        # multiple of 8: several leaves per row below the default target
        dm = corr_dm(30, 5)
        want = _full_row_reference(dm, method)
        for target in (1, 200, 1500, depths._BLOCK_TARGET):
            monkeypatch.setattr(depths, "_BLOCK_TARGET", target)
            assert np.array_equal(depth_values(dm, method), want)

    def test_mod3_rows_longer_than_the_target(self):
        # n=70 has 54740 triples per row, more than the default target
        dm = corr_dm(70, 6)
        assert len(depths._leaves(0, math.comb(70, 3))) > 1
        assert np.array_equal(depth_values(dm, DepthMethod.MOD3),
                              _full_row_reference(dm, DepthMethod.MOD3))

    @pytest.mark.parametrize("method", list(DepthMethod))
    def test_one_and_two_workers_agree(self, method, monkeypatch):
        dm = corr_dm(30, 7)
        q = dm.values[3]
        got = []
        for workers in (1, 2):
            monkeypatch.setattr(depths, "_WORKERS", workers)
            # 1500 terms: several row blocks, or one row in several leaves
            monkeypatch.setattr(depths, "_BLOCK_TARGET", 1500)
            got.append((depth_values(dm, method), depth_of_query(q, dm, method)))
        assert np.array_equal(got[0][0], got[1][0])
        assert got[0][1] == got[1][1]

    def test_violation_in_a_later_row_block_raises(self, monkeypatch):
        # row 1 of nonmetric_dm() is the one whose kernels all pass: put it
        # first, so that only the tiles of later row blocks fail
        v = nonmetric_dm().values[np.ix_([1, 0, 2, 3], [1, 0, 2, 3])]
        monkeypatch.setattr(depths, "_WORKERS", 2)
        monkeypatch.setattr(depths, "_BLOCK_TARGET", 1)
        depth_of_query(v[0], v, DepthMethod.MOD3)
        with pytest.raises(MetricViolationError):
            depth_values(v, DepthMethod.MOD3)

    def test_violation_in_a_later_leaf_raises(self, monkeypatch):
        # seventeen copies of point 1 of nonmetric_dm(): seen from point 0,
        # only the triples (copy, 2, 3) fail, the last of each copy's triples
        idx = [0] + [1] * 17 + [2, 3]
        v = nonmetric_dm().values[np.ix_(idx, idx)]
        monkeypatch.setattr(depths, "_WORKERS", 2)
        monkeypatch.setattr(depths, "_BLOCK_TARGET", 1)
        state = depths.sample_state(v, DepthMethod.MOD3)
        first = depths._leaves(0, math.comb(20, 3))[0]
        tile_terms(state, v[:1], slice(*first))
        with pytest.raises(MetricViolationError):
            depth_of_query(v[0], state, DepthMethod.MOD3)

    def test_caller_errstate_applies_in_worker_threads(self, monkeypatch):
        monkeypatch.setattr(depths, "_WORKERS", 2)
        seen = []

        def task(x):
            time.sleep(0.02)
            seen.append((threading.get_ident(), np.geterr()["over"]))
            return x

        with np.errstate(over="raise"):
            assert depths._run(task, range(8)) == list(range(8))
        assert len({ident for ident, _ in seen}) == 2
        assert all(mode == "raise" for _, mode in seen)
        # and end to end: squaring these distances overflows
        dm = line_dm(1e160 * np.arange(12.0))
        monkeypatch.setattr(depths, "_BLOCK_TARGET", 200)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            depth_values(dm, DepthMethod.MOD3)

    def test_every_item_runs_once_under_contention(self, monkeypatch):
        # more threads than cores, switching as often as the interpreter
        # allows: a claim lost or made twice shows as a wrong or repeated run
        monkeypatch.setattr(depths, "_WORKERS", 8)
        ran = []

        def task(x):
            ran.append(x)
            return x * x

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = depths._run(task, range(3000))
        finally:
            sys.setswitchinterval(interval)
        assert out == [x * x for x in range(3000)]
        assert sorted(ran) == list(range(3000))
        assert threading.active_count() == 1

    def test_single_tile_calls_start_no_thread(self, monkeypatch):
        # one tile runs inline, as every query of the out-of-sample search does
        def fail(self):
            raise AssertionError("thread started for a single tile")

        monkeypatch.setattr(depths, "_WORKERS", 2)
        monkeypatch.setattr(threading.Thread, "start", fail)
        dm = corr_dm(40, 8)
        for method in DepthMethod:
            depth_of_query(dm.values[0], dm, method)
        depth_values(corr_dm(10, 8), DepthMethod.MOD3)
        # and so do two one-tile blocks: five MOD3 rows at n=40 (3 + 2)
        assert depths._BLOCK_TARGET // math.comb(40, 3) == 3
        depths._depths(depths.sample_state(dm, DepthMethod.MOD3), dm.values[:5])

    def test_blocks_of_several_rows_and_lone_rows_start_no_thread(self, monkeypatch):
        # MOD3 at n=40: blocks of three rows, four and fourteen of them
        def fail(self):
            raise AssertionError("thread started for blocks of several rows or a lone row")

        monkeypatch.setattr(depths, "_WORKERS", 2)
        monkeypatch.setattr(threading.Thread, "start", fail)
        dm = corr_dm(40, 8)
        state = depths.sample_state(dm, DepthMethod.MOD3)
        for rows in (12, 40):
            depths._depths(state, dm.values[:rows])
        # one row over two leaves
        dm = corr_dm(70, 6)
        assert len(depths._leaves(0, math.comb(70, 3))) == 2
        depth_of_query(dm.values[0], dm, DepthMethod.MOD3)

    def test_one_row_blocks_run_on_worker_threads(self, monkeypatch):
        started = []
        start = threading.Thread.start

        def counting(self):
            started.append(self)
            start(self)

        monkeypatch.setattr(depths, "_WORKERS", 2)
        monkeypatch.setattr(threading.Thread, "start", counting)
        dm = corr_dm(70, 6)
        assert np.array_equal(depth_values(dm, DepthMethod.MOD3),
                              _full_row_reference(dm, DepthMethod.MOD3))
        assert started
        assert threading.active_count() == 1

    def test_a_failure_cancels_the_items_not_started(self, monkeypatch):
        monkeypatch.setattr(depths, "_WORKERS", 2)
        ran = []

        def task(x):
            ran.append(x)
            if x == 1:
                raise ValueError(x)
            time.sleep(0.01)
            return x

        with pytest.raises(ValueError):
            depths._run(task, range(200))
        assert len(ran) < 200
        assert threading.active_count() == 1


def _mod3_terms_expression(s, q, part=slice(None)):
    """MOD3 kernels as one expression, whose evaluation order the in-place
    ``_mod3_terms`` keeps."""
    a = q * q
    c = (0.5 * (a[:, :, None] + a[:, None, :] - s.table)).reshape(len(q), -1)
    ij, jk, ik = (t[part] for t in s.index)
    n = q.shape[1]
    i, j, k = ij // n, ij % n, jk % n
    c_ij, c_jk, c_ik = c.take(ij, axis=1), c.take(jk, axis=1), c.take(ik, axis=1)
    a_i, a_j, a_k = a.take(i, axis=1), a.take(j, axis=1), a.take(k, axis=1)
    prod = a_i * a_j * a_k
    rad = (
        5.0 * prod
        + 2.0 * c_ij * c_jk * c_ik
        - a_i * c_jk * c_jk
        - a_j * c_ik * c_ik
        - a_k * c_ij * c_ij
    )
    scale = np.maximum(prod, np.minimum(1.0, a.max(axis=1, keepdims=True) ** 3))
    if np.any(rad < -KERNEL_RADICAND_TOL * scale):
        raise MetricViolationError("kernel radicand below round-off tolerance; not a metric")
    return np.sqrt(np.maximum(rad, 0.0))


class TestMod3InPlaceTerms:
    @pytest.mark.parametrize("make", [corr_dm, sphere_dm, histogram_dm,
                                      lambda n, seed: euclidean_dm(
                                          np.random.default_rng(seed).standard_normal((n, 3)))])
    def test_equals_the_expression_bitwise(self, make):
        state = depths.sample_state(make(25, 4), DepthMethod.MOD3)
        v = state.values
        # query rows off the sample: a convex mix of two of its rows
        mixed = 0.75 * v[:8] + 0.25 * v[8:16]
        for q in (v[3:4], v[:7], mixed[:1], mixed):
            for part in (slice(None), slice(100, 1311)):
                got = tile_terms(state, q, part)
                want = _mod3_terms_expression(state, q, part)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("eps, raises", [(1e-12, False), (1e-9, True)])
    def test_radicand_between_the_two_tolerances(self, eps, raises):
        # Three sample points at mutual distance D, a query at s = 10 from
        # each: with a = s^2 and x = c / a = 1 - D^2 / (2a) = -1 - eps, the
        # radicand is a^3 (5 + 2x^3 - 3x^2), about -12 eps a^3. The check
        # first compares it with -KERNEL_RADICAND_TOL * min(1, m^3) = -1e-9,
        # and then with the exact tolerance -KERNEL_RADICAND_TOL * prod =
        # -1e-3: eps = 1e-12 falls between the two (clamped to a zero
        # kernel), eps = 1e-9 below both (raised).
        s = 10.0
        d = s * np.sqrt(2 * (2 + eps))
        state = depths.sample_state(DistanceMatrix(d - d * np.eye(3)), DepthMethod.MOD3)
        q = np.full((1, 3), s)
        a, c = s * s, 0.5 * (2 * s * s - d * d)
        rad = 5 * a ** 3 + 2 * c ** 3 - 3 * a * c * c
        assert rad < -KERNEL_RADICAND_TOL
        assert (rad < -KERNEL_RADICAND_TOL * a ** 3) == raises
        if raises:
            with pytest.raises(MetricViolationError):
                tile_terms(state, q)
        else:
            assert tile_terms(state, q).tolist() == [[0.0]]
            assert _mod3_terms_expression(state, q).tolist() == [[0.0]]

    def test_non_metric_row_raises(self):
        state = depths.sample_state(nonmetric_dm(), DepthMethod.MOD3)
        for q in (state.values, state.values[:1], state.values[2:3]):
            with pytest.raises(MetricViolationError):
                _mod3_terms_expression(state, q)
            with pytest.raises(MetricViolationError):
                tile_terms(state, q)


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
        mod3_vals = [depth_of_query(np.abs(pts - x), dm, DepthMethod.MOD3) for x in grid]
        mld_vals = [depth_of_query(np.abs(pts - x), dm, DepthMethod.MLD) for x in grid]
        msd_vals = [depth_of_query(np.abs(pts - x), dm, DepthMethod.MSD) for x in grid]
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


# the MOD2, MLD and MSD terms as the expressions of the evaluators that
# allocated every temporary, which the in-place ones keep
def _mod2_terms_expression(s, q, part=slice(None)):
    a = q * q
    i, j = (t[part] for t in s.index)
    a_i, a_j = a.take(i, axis=1), a.take(j, axis=1)
    c_ij = 0.5 * (a_i + a_j - s.table[part])
    det = a_i * a_j - c_ij * c_ij
    m = np.maximum(np.maximum(a_i, a_j), np.abs(c_ij))
    return np.where(det > DET2_TOL * m * m, np.sqrt(np.maximum(det, 0.0)), 0.0)


def _mld_terms_expression(s, q, part=slice(None)):
    i, j = (t[part] for t in s.index)
    return s.table[part] > np.maximum(q.take(i, axis=1), q.take(j, axis=1))


def _msd_terms_expression(s, q, part=slice(None)):
    i, j = (t[part] for t in s.index)
    qi, qj = q.take(i, axis=1), q.take(j, axis=1)
    active = (qi != 0.0) & (qj != 0.0)
    num = qi * qi + qj * qj - s.table[part]
    denom = np.where(active, qi * qj, 1.0)
    return np.where(active, np.clip(num / denom, -2.0, 2.0), 0.0)


_EXPRESSIONS = {
    DepthMethod.MOD3: _mod3_terms_expression,
    DepthMethod.MOD2: _mod2_terms_expression,
    DepthMethod.MLD: _mld_terms_expression,
    DepthMethod.MSD: _msd_terms_expression,
}


def _dirty_scratch(size):
    """Tile buffers that hold what a failed tile could leave behind."""
    scratch = depths._Scratch(size)
    scratch.floats.fill(np.nan)
    scratch.masks.fill(True)
    return scratch


class TestTileBuffers:
    @pytest.mark.parametrize("method", sorted(_EXPRESSIONS))
    @pytest.mark.parametrize("make", [corr_dm, sphere_dm, histogram_dm])
    def test_terms_equal_the_expressions_bitwise(self, method, make):
        shared, terms, _ = depths._EVALUATE[method]
        state = depths.sample_state(make(25, 4), method)
        v = state.values
        # sample rows (a zero distance each) and rows off the sample
        mixed = 0.75 * v[:8] + 0.25 * v[8:16]
        for q in (v[3:4], v[:7], mixed[:1], mixed):
            for part in (slice(None), slice(100, 251)):
                want = _EXPRESSIONS[method](state, q, part)
                dirty = terms(state, q, part, scratch=_dirty_scratch(depths._BLOCK_TARGET),
                              **shared(state, q))
                for got in (tile_terms(state, q, part), dirty):
                    assert got.shape == want.shape and got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes()

    def test_mod2_terms_of_overflowing_distances_are_zero(self):
        # squared distances of 1e160 overflow: the determinant and its clamp
        # are NaN, and a NaN determinant fails the clamp test, so its kernel
        # is 0, as in the expression
        with np.errstate(all="ignore"):
            state = depths.sample_state(line_dm(1e160 * np.arange(12.0)), DepthMethod.MOD2)
            v = state.values
            i, j = state.index
            a = v * v
            c = 0.5 * (a[:, i] + a[:, j] - state.table)
            assert np.isnan(a[:, i] * a[:, j] - c * c).any()
            want = _mod2_terms_expression(state, v)
            assert not np.isnan(want).any()
            dirty = depths._mod2_terms(state, v, slice(None), _dirty_scratch(depths._BLOCK_TARGET))
            for got in (tile_terms(state, v), dirty):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_failed_tile_leaves_later_calls_exact(self, workers, monkeypatch):
        monkeypatch.setattr(depths, "_WORKERS", workers)
        monkeypatch.setattr(depths, "_BLOCK_TARGET", 1500)
        dm = corr_dm(30, 7)
        want = {m: _full_row_reference(dm, m) for m in DepthMethod}
        # a non-metric sample whose later tiles fail, on the worker threads
        # too: copies of point 1 of nonmetric_dm(), as in the leaf test above
        idx = [0] + [1] * 17 + [2, 3]
        bad = nonmetric_dm().values[np.ix_(idx, idx)]
        for method in DepthMethod:
            with pytest.raises(MetricViolationError):
                depth_values(bad, DepthMethod.MOD3)
            assert np.array_equal(depth_values(dm, method), want[method])
        # the buffers lent last were sized by the target of the call
        assert all(s.size == 1500 for s in depths._SCRATCH[-workers:])

    def test_buffers_lent_once_at_a_time_under_contention(self, monkeypatch):
        # more threads than cores, switching as often as the interpreter
        # allows: a buffer lent to two tiles at once, or lost, would show as
        # a wrong depth or a repeated buffer in the pool
        monkeypatch.setattr(depths, "_WORKERS", 8)
        monkeypatch.setattr(depths, "_BLOCK_TARGET", 200)
        monkeypatch.setattr(depths, "_SCRATCH", [])
        dm = corr_dm(20, 9)
        want = {m: _full_row_reference(dm, m) for m in DepthMethod}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for method in DepthMethod:
                assert np.array_equal(depth_values(dm, method), want[method])
        finally:
            sys.setswitchinterval(interval)
        assert 1 <= len(depths._SCRATCH) <= 8
        assert len({id(s) for s in depths._SCRATCH}) == len(depths._SCRATCH)
        assert threading.active_count() == 1

    def test_forked_processes_keep_their_own_buffers(self):
        # two processes forked after the pool was filled score their own
        # samples at the same time: buffers shared with each other would
        # mix their tiles' temporaries and give wrong depths
        samples = [corr_dm(40, 3), corr_dm(40, 4)]
        want = [[depth_values(dm, m) for m in DepthMethod] for dm in samples]
        assert depths._SCRATCH

        def score(dm, expected):
            for _ in range(40):
                got = [depth_values(dm, m) for m in DepthMethod]
                if any(g.tobytes() != w.tobytes() for g, w in zip(got, expected)):
                    sys.exit(1)

        fork = multiprocessing.get_context("fork")
        children = [fork.Process(target=score, args=pair) for pair in zip(samples, want)]
        for child in children:
            child.start()
        for child in children:
            child.join(timeout=120)
        assert [child.exitcode for child in children] == [0, 0]

    def test_repeated_calls_fault_no_memory_in(self):
        # In a fresh process the allocator hands a tile's freed temporaries
        # back to the system and faults them in again on the next call: about
        # 1,500 minor page faults for a 12-row MOD3 block at n=40 (four tiles
        # of 3 rows), and for passes at n=140 about 16,000 (MOD2), 9,500
        # (MSD), 5,000 (MLD) and up to 80 (MHD), when each tile allocated its
        # own. The tile buffers are kept between calls.
        code = """if True:
            import resource
            from metricdepth.depths import DepthMethod, _depths, depth_values, sample_state
            from metricdepth.simulation import CorrSimConfig, gen_correlation_sample
            from metricdepth.seeding import child_rng
            from metricdepth.spaces import distance_matrix

            def faults(call):
                call()
                call()
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                call()
                return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

            def sample(p, n):
                cfg = CorrSimConfig(p=p, n=n, eps=0.1, reps=1, seed=5)
                return distance_matrix(gen_correlation_sample(cfg, child_rng(5, 1))[0]).values

            v = sample(4, 40)
            mod3 = sample_state(v, DepthMethod.MOD3)
            print(faults(lambda: _depths(mod3, v[:12])))
            dm = sample(3, 140)
            for method in (DepthMethod.MSD, DepthMethod.MOD2, DepthMethod.MLD, DepthMethod.MHD):
                state = sample_state(dm, method)
                print(faults(lambda: depth_values(state, method)))
        """
        src = str(Path(depths.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=120, check=True)
        counts = list(map(int, proc.stdout.split()))
        assert len(counts) == 5
        assert all(c < 50 for c in counts), counts
