"""Tests for the two-group permutation inference."""

import numpy as np
import pytest

import metricdepth.deepest as deepest_module
import metricdepth.inference as inference_module
from metricdepth.depths import DepthMethod
from metricdepth.errors import InsufficientSampleError, InvalidArgumentError
from metricdepth.inference import (
    deepest_distance_statistic,
    label_swap_experiment,
    permutation_test,
    statistic_from_dm,
)
from metricdepth.seeding import PERMUTATION_TAG, child_rng
from metricdepth.simulation import CorrSimConfig, gen_correlation_sample, gen_histogram_groups
from metricdepth.spaces import EuclideanPoint, ObjectSet, distance_matrix


def euclidean_groups(values_a, values_b):
    items = tuple(EuclideanPoint([float(v)]) for v in list(values_a) + list(values_b))
    labels = ("A",) * len(values_a) + ("B",) * len(values_b)
    return ObjectSet(items, labels)


class TestStatistic:
    def test_separated_line_groups(self):
        objs = euclidean_groups([0, 1, 2], [10, 11, 12])
        assert deepest_distance_statistic(objs, DepthMethod.MLD) == 10.0

    def test_identical_groups_zero(self):
        objs = euclidean_groups([0, 2], [0, 2])
        assert deepest_distance_statistic(objs, DepthMethod.MLD) == 0.0

    def test_all_equal_objects_zero(self):
        objs = euclidean_groups([1, 1, 1], [1, 1, 1])
        assert deepest_distance_statistic(objs, DepthMethod.MSD) == 0.0

    def test_group_too_small(self):
        objs = euclidean_groups([0, 1], [5, 6, 7])
        with pytest.raises(InsufficientSampleError):
            deepest_distance_statistic(objs, DepthMethod.MOD3)

    def test_needs_exactly_two_labels(self):
        items = tuple(EuclideanPoint([float(v)]) for v in range(6))
        objs = ObjectSet(items, ("A", "A", "B", "B", "C", "C"))
        with pytest.raises(InvalidArgumentError):
            deepest_distance_statistic(objs, DepthMethod.MLD)

    def test_symmetric_in_group_names(self, rng):
        vals_a = rng.standard_normal(6)
        vals_b = rng.standard_normal(7) + 1.0
        t_ab = deepest_distance_statistic(euclidean_groups(vals_a, vals_b), DepthMethod.MSD)
        # swap the group names: relabel A<->B
        items = tuple(EuclideanPoint([float(v)]) for v in list(vals_a) + list(vals_b))
        labels = ("B",) * 6 + ("A",) * 7
        t_ba = deepest_distance_statistic(ObjectSet(items, labels), DepthMethod.MSD)
        assert t_ab == t_ba


class TestPermutationTest:
    def test_report_shape_and_range(self):
        objs = gen_histogram_groups(6, 6, 0.0, 8, seed=1)
        report = permutation_test(objs, DepthMethod.MLD, B=37, seed=2)
        assert report.t_permuted.shape == (37,)
        assert 0.0 <= report.p_value <= 1.0
        hits = int(np.count_nonzero(report.t_observed <= report.t_permuted))
        assert report.p_value == hits / 37

    def test_b_one_boundary(self):
        objs = gen_histogram_groups(5, 5, 0.0, 8, seed=3)
        report = permutation_test(objs, DepthMethod.MLD, B=1, seed=4)
        assert report.p_value in (0.0, 1.0)

    def test_corrected_variant_never_zero(self):
        objs = gen_histogram_groups(8, 8, 5.0, 15, seed=5)
        B = 60
        plain = permutation_test(objs, DepthMethod.MOD3, B=B, seed=6)
        corrected = permutation_test(objs, DepthMethod.MOD3, B=B, seed=6, corrected=True)
        # the correction changes the p-value only, never the draws
        assert plain.t_observed == corrected.t_observed
        assert np.array_equal(plain.t_permuted, corrected.t_permuted)
        # ties with the observed statistic count as hits in both conventions
        hits = int(np.count_nonzero(plain.t_observed <= plain.t_permuted))
        assert plain.p_value == hits / B
        assert corrected.p_value == (1 + hits) / (1 + B)
        assert corrected.p_value >= 1 / (B + 1) > 0

        # The boundary: no permuted draw reaches the observed statistic, so
        # the plain p-value is 0 while the corrected one is 1/(B+1). Most
        # relabelings leave a majority of one cluster in each group (6A+2B
        # against 2A+6B, say). On these nearly 1-D data MLD then picks the
        # majority member nearest the other cluster, so every permuted
        # statistic falls below the observed one. MOD3 resists the minority
        # and picks near the majority's middle, so its permuted statistics
        # fall on both sides of the observed one and its plain p is not 0.
        plain = permutation_test(objs, DepthMethod.MLD, B=B, seed=6)
        corrected = permutation_test(objs, DepthMethod.MLD, B=B, seed=6, corrected=True)
        assert np.count_nonzero(plain.t_observed <= plain.t_permuted) == 0
        assert plain.p_value == 0.0
        assert corrected.p_value == 1 / (B + 1)

    def test_deterministic_in_seed(self):
        objs = gen_histogram_groups(6, 7, 1.0, 10, seed=7)
        r1 = permutation_test(objs, DepthMethod.MSD, B=25, seed=8)
        r2 = permutation_test(objs, DepthMethod.MSD, B=25, seed=8)
        assert np.array_equal(r1.t_permuted, r2.t_permuted)
        assert r1.p_value == r2.p_value

    def test_object_order_invariance(self, rng):
        # shuffling objects together with their labels leaves the observed
        # statistic unchanged
        objs = gen_histogram_groups(6, 6, 1.5, 10, seed=9)
        perm = rng.permutation(len(objs))
        shuffled = ObjectSet(tuple(objs.items[i] for i in perm),
                             tuple(objs.labels[i] for i in perm))
        t1 = deepest_distance_statistic(objs, DepthMethod.MOD3)
        t2 = deepest_distance_statistic(shuffled, DepthMethod.MOD3)
        assert t1 == t2

    def test_distance_matrix_computed_once(self, monkeypatch):
        objs = gen_histogram_groups(5, 5, 0.0, 8, seed=10)
        import metricdepth.inference as inference_module

        calls = []
        original = inference_module.distance_matrix

        def counting(objects):
            calls.append(1)
            return original(objects)

        monkeypatch.setattr(inference_module, "distance_matrix", counting)
        permutation_test(objs, DepthMethod.MLD, B=40, seed=11)
        assert len(calls) == 1

    @pytest.mark.parametrize("kind", ["hist", "corr"])
    def test_pooled_certificate_checked_once(self, kind, monkeypatch):
        # a certified pooled sample certifies every group of every draw;
        # an uncertified one leaves each group to its own check
        if kind == "hist":
            objs = gen_histogram_groups(6, 6, 1.0, 8, seed=2)
        else:
            corr, _ = gen_correlation_sample(CorrSimConfig(p=3, n=12, eps=0.1, reps=1, seed=3),
                                             child_rng(3, 1))
            objs = ObjectSet(corr.items, ("A", "B") * 6)
        calls = []
        original = deepest_module.euclidean_certificate

        def counting(dm):
            calls.append(len(dm))
            return original(dm)

        monkeypatch.setattr(inference_module, "euclidean_certificate", counting)
        monkeypatch.setattr(deepest_module, "euclidean_certificate", counting)
        report = permutation_test(objs, DepthMethod.MOD3, B=10, seed=4)
        assert calls == ([12] if kind == "hist" else [12] + [6] * 22)
        # the statistics are those of group-by-group checks
        dm = distance_matrix(objs)
        labels = np.asarray(objs.labels)
        want = [statistic_from_dm(dm, labels[child_rng(4, PERMUTATION_TAG, b).permutation(12)],
                                  DepthMethod.MOD3) for b in range(10)]
        assert report.t_observed == statistic_from_dm(dm, labels, DepthMethod.MOD3)
        assert np.array_equal(report.t_permuted, want)

    def test_unlabeled_set_rejected(self):
        items = tuple(EuclideanPoint([float(v)]) for v in range(6))
        with pytest.raises(InvalidArgumentError):
            permutation_test(ObjectSet(items), DepthMethod.MLD, B=5, seed=0)

    def test_zero_permutations_rejected(self):
        objs = gen_histogram_groups(5, 5, 0.0, 8, seed=1)
        with pytest.raises(InvalidArgumentError):
            permutation_test(objs, DepthMethod.MLD, B=0, seed=0)


class TestLabelSwap:
    def test_zero_swaps_equal_plain_tests(self):
        objs = gen_histogram_groups(8, 8, 2.0, 10, seed=12)
        report = label_swap_experiment(objs, ["MOD3"], k=0, repeats=3, B=30, seed=13)
        # with k=0 every repeat tests the original labels; only the inner
        # permutation seeds differ across repeats
        from metricdepth.seeding import SUBTEST_TAG, child_seed

        for rep_index, p in enumerate(report.p_values["MOD3"]):
            expected = permutation_test(
                objs, DepthMethod.MOD3, B=30,
                seed=child_seed(13, SUBTEST_TAG, rep_index, 0))
            assert p == expected.p_value

    def test_full_swap_preserves_statistic(self):
        # swapping every label of two equal-size groups relabels the groups;
        # the symmetric statistic is unchanged
        objs = gen_histogram_groups(6, 6, 1.0, 10, seed=14)
        labels = np.asarray(objs.labels)
        flipped = np.where(labels == "A", "B", "A")
        t1 = statistic_from_dm(
            __import__("metricdepth.spaces", fromlist=["distance_matrix"]).distance_matrix(objs),
            labels, DepthMethod.MSD)
        t2 = statistic_from_dm(
            __import__("metricdepth.spaces", fromlist=["distance_matrix"]).distance_matrix(objs),
            flipped, DepthMethod.MSD)
        assert t1 == t2

    def test_swap_keeps_group_sizes(self):
        objs = gen_histogram_groups(7, 9, 1.0, 10, seed=15)
        report = label_swap_experiment(objs, ["MLD"], k=3, repeats=2, B=10, seed=16)
        assert len(report.p_values["MLD"]) == 2

    def test_oversized_k_rejected(self):
        objs = gen_histogram_groups(5, 8, 1.0, 10, seed=17)
        with pytest.raises(InvalidArgumentError):
            label_swap_experiment(objs, ["MLD"], k=6, repeats=1, B=5, seed=18)

    @pytest.mark.parametrize("n, B, error", [(5, 0, InvalidArgumentError),
                                             (5, -3, InvalidArgumentError),
                                             (2, 5, InsufficientSampleError)])
    def test_rejected_before_any_distance_work(self, n, B, error, monkeypatch):
        # no permutations, or a group too small for MOD3 (three objects)
        def fail(*args, **kwargs):
            raise AssertionError("distance matrix computed before validation")

        monkeypatch.setattr(inference_module, "distance_matrix", fail)
        objs = gen_histogram_groups(n, n, 1.0, 8, seed=2)
        with pytest.raises(error):
            label_swap_experiment(objs, ["MLD", "MOD3"], k=1, repeats=1, B=B, seed=3)

    def test_mean_p_values_reported_per_method(self):
        objs = gen_histogram_groups(8, 8, 3.0, 15, seed=19)
        report = label_swap_experiment(objs, ["MOD3", "MOD2"], k=1, repeats=2, B=20, seed=20)
        for m in ("MOD3", "MOD2"):
            assert len(report.p_values[m]) == 2
            assert 0.0 <= report.mean_p_value(m) <= 1.0
