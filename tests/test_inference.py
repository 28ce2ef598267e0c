"""Tests for the two-group permutation inference."""

import math

import numpy as np
import pytest

import metricdepth.depths as depths_module
import metricdepth.inference as inference_module
import metricdepth.spaces as spaces_module
from metricdepth.deepest import deepest_in_sample
from metricdepth.depths import DepthMethod, depth_values
from metricdepth.errors import InsufficientSampleError, InvalidArgumentError
from metricdepth.inference import (
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


def reference_statistics(dm, draws, method):
    """The statistic of each row of the label array ``draws``, one group at
    a time: the distance between the picks of ``deepest_in_sample`` on the
    two groups' distance sub-matrices."""
    v = np.asarray(getattr(dm, "values", dm))
    out = []
    for labels in draws:
        groups = [np.flatnonzero(labels == name) for name in sorted(set(labels.tolist()))]
        a, b = (int(g[deepest_in_sample(v[np.ix_(g, g)], method).index]) for g in groups)
        out.append(v[a, b])
    return np.array(out)


def label_draws(labels, B, seed):
    """The observed labels and the ``B`` permuted ones of a test."""
    labels = np.asarray(labels)
    return [labels] + [labels[child_rng(seed, PERMUTATION_TAG, b).permutation(labels.size)]
                       for b in range(B)]


def shuffled(objects, seed):
    perm = np.random.default_rng(seed).permutation(len(objects))
    return ObjectSet(tuple(objects.items[i] for i in perm), tuple(objects.labels[i] for i in perm))


def grouped_sample(kind, n1, n2):
    """``n1`` + ``n2`` labeled objects of one kind, the groups interleaved."""
    n = n1 + n2
    labels = ("A",) * n1 + ("B",) * n2
    if kind == "hist":
        return shuffled(gen_histogram_groups(n1, n2, 1.0, 10, seed=n), 1)
    if kind == "corr":
        corr, _ = gen_correlation_sample(CorrSimConfig(p=3, n=n, eps=0.1, reps=1, seed=5),
                                         child_rng(5, 1))
        return shuffled(ObjectSet(corr.items, labels), 2)
    points = np.random.default_rng(n).standard_normal((n, 2))
    if kind == "duplicates":
        # points on a small grid, each of group A's repeated in group B:
        # depths tie within groups, and the lowest index must win
        points = np.random.default_rng(n).integers(0, 3, (n, 2)).astype(float)
        points[n1:2 * n1] = points[:n1]
    return shuffled(ObjectSet(tuple(EuclideanPoint(p) for p in points), labels), 3)


# (n, B, seed, error): no permutations, a fractional count, a negative or a
# fractional seed, or a group too small for MOD3 (three objects)
REFUSED_BEFORE_DISTANCES = [
    pytest.param(5, 0, 3, InvalidArgumentError, id="5-0-InvalidArgumentError"),
    pytest.param(5, -3, 3, InvalidArgumentError, id="5--3-InvalidArgumentError"),
    pytest.param(5, 2.5, 3, InvalidArgumentError, id="5-2.5-InvalidArgumentError"),
    pytest.param(5, 5, -1, InvalidArgumentError, id="seed-1-InvalidArgumentError"),
    pytest.param(5, 5, 1.5, InvalidArgumentError, id="seed1.5-InvalidArgumentError"),
    pytest.param(2, 5, 3, InsufficientSampleError, id="2-5-InsufficientSampleError"),
]


def refuse_distance_work(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("distance matrix computed before validation")

    monkeypatch.setattr(inference_module, "distance_matrix", fail)


class TestStatistic:
    def test_separated_line_groups(self):
        objs = euclidean_groups([0, 1, 2], [10, 11, 12])
        assert statistic_from_dm(distance_matrix(objs), objs.labels, DepthMethod.MLD) == 10.0

    def test_identical_groups_zero(self):
        objs = euclidean_groups([0, 2], [0, 2])
        assert statistic_from_dm(distance_matrix(objs), objs.labels, DepthMethod.MLD) == 0.0

    def test_all_equal_objects_zero(self):
        objs = euclidean_groups([1, 1, 1], [1, 1, 1])
        assert statistic_from_dm(distance_matrix(objs), objs.labels, DepthMethod.MSD) == 0.0

    def test_group_too_small(self):
        objs = euclidean_groups([0, 1], [5, 6, 7])
        with pytest.raises(InsufficientSampleError):
            statistic_from_dm(distance_matrix(objs), objs.labels, DepthMethod.MOD3)

    def test_needs_exactly_two_labels(self):
        items = tuple(EuclideanPoint([float(v)]) for v in range(6))
        objs = ObjectSet(items, ("A", "A", "B", "B", "C", "C"))
        with pytest.raises(InvalidArgumentError):
            statistic_from_dm(distance_matrix(objs), objs.labels, DepthMethod.MLD)

    def test_symmetric_in_group_names(self, rng):
        vals_a = rng.standard_normal(6)
        vals_b = rng.standard_normal(7) + 1.0
        objs = euclidean_groups(vals_a, vals_b)
        t_ab = statistic_from_dm(distance_matrix(objs), objs.labels, DepthMethod.MSD)
        # swap the group names: relabel A<->B
        items = tuple(EuclideanPoint([float(v)]) for v in list(vals_a) + list(vals_b))
        labels = ("B",) * 6 + ("A",) * 7
        t_ba = statistic_from_dm(distance_matrix(ObjectSet(items, labels)), labels, DepthMethod.MSD)
        assert t_ab == t_ba

    def test_method_by_name(self):
        objs = euclidean_groups([0, 1, 2, 4], [10, 11, 13, 14])
        dm = distance_matrix(objs)
        for method in DepthMethod:
            assert (statistic_from_dm(dm, objs.labels, method.value)
                    == statistic_from_dm(dm, objs.labels, method))

    def test_missing_labels_rejected(self):
        objs = euclidean_groups([0, 1, 2], [10, 11, 12])
        with pytest.raises(InvalidArgumentError):
            statistic_from_dm(distance_matrix(objs), None, DepthMethod.MLD)

    def test_certified_pooled_sample_checks_no_group(self, monkeypatch):
        # the pooled histogram sample passes the certificate, which covers
        # both groups: its Gram is the only one decomposed
        objs = gen_histogram_groups(6, 6, 1.0, 8, seed=2)
        dm = distance_matrix(objs)
        want = reference_statistics(dm, [np.asarray(objs.labels)], DepthMethod.MOD3)
        grams = []
        embeds = depths_module._embeds

        def counting_grams(v):
            grams.append(v.shape)
            return embeds(v)

        monkeypatch.setattr(depths_module, "_embeds", counting_grams)
        assert statistic_from_dm(dm, objs.labels, DepthMethod.MOD3) == want[0]
        assert grams == [(12, 12)]


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
        t1 = statistic_from_dm(distance_matrix(objs), objs.labels, DepthMethod.MOD3)
        t2 = statistic_from_dm(distance_matrix(shuffled), shuffled.labels, DepthMethod.MOD3)
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
        # an uncertified one leaves the groups of each group array to one
        # stacked Gram test
        if kind == "hist":
            objs = gen_histogram_groups(6, 6, 1.0, 8, seed=2)
        else:
            corr, _ = gen_correlation_sample(CorrSimConfig(p=3, n=12, eps=0.1, reps=1, seed=3),
                                             child_rng(3, 1))
            objs = ObjectSet(corr.items, ("A", "B") * 6)
        calls = []
        original = depths_module.euclidean_certificate

        def counting(dm):
            calls.append(len(dm))
            return original(dm)

        grams = []
        embeds = depths_module._embeds

        def counting_grams(v):
            grams.append(v.shape)
            return embeds(v)

        monkeypatch.setattr(depths_module, "euclidean_certificate", counting)
        monkeypatch.setattr(depths_module, "_embeds", counting_grams)
        report = permutation_test(objs, DepthMethod.MOD3, B=10, seed=4)
        assert calls == [12]
        # the pooled test, then one stack of the 11 draws' groups per label
        assert grams == ([(12, 12)] if kind == "hist" else [(12, 12)] + [(11, 6, 6)] * 2)
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

    @pytest.mark.parametrize("n, B, seed, error", REFUSED_BEFORE_DISTANCES)
    def test_rejected_before_any_distance_work(self, n, B, seed, error, monkeypatch):
        refuse_distance_work(monkeypatch)
        objs = gen_histogram_groups(n, n, 1.0, 8, seed=2)
        with pytest.raises(error):
            permutation_test(objs, DepthMethod.MOD3, B=B, seed=seed)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("method", [DepthMethod.MHD, DepthMethod.MOD3])
    def test_non_finite_dm_rejected_before_any_draw(self, bad, method, monkeypatch):
        objs = gen_histogram_groups(6, 6, 1.0, 8, seed=2)
        v = distance_matrix(objs).values.copy()
        v[1, 7] = v[7, 1] = bad

        def fail(*args, **kwargs):
            raise AssertionError("permutation drawn before validation")

        monkeypatch.setattr(inference_module, "child_rng", fail)
        with pytest.raises(InvalidArgumentError, match="finite"):
            permutation_test(objs, method, B=10, seed=1, dm=v)
        with pytest.raises(InvalidArgumentError, match="finite"):
            statistic_from_dm(v, objs.labels, method)

    @pytest.mark.parametrize("method", [DepthMethod.MLD, DepthMethod.MOD3, DepthMethod.MHD])
    def test_non_square_dm_rejected_before_any_draw(self, method, monkeypatch):
        # the rows of a 12-object matrix cut to the first 10 objects: the
        # row count matches the labels, the column count does not
        objs = gen_histogram_groups(5, 5, 1.0, 8, seed=2)
        v = distance_matrix(gen_histogram_groups(6, 6, 1.0, 8, seed=2)).values[:10]

        def fail(*args, **kwargs):
            raise AssertionError("permutation drawn before validation")

        monkeypatch.setattr(inference_module, "child_rng", fail)
        with pytest.raises(InvalidArgumentError, match="10 x 10"):
            permutation_test(objs, method, B=10, seed=1, dm=v)
        with pytest.raises(InvalidArgumentError, match="10 x 10"):
            statistic_from_dm(v, objs.labels, method)

    def test_given_dm_used_as_given(self):
        # a given matrix stands in for the set's own, which is not built
        objs = gen_histogram_groups(6, 6, 1.0, 8, seed=3)
        doubled = 2.0 * distance_matrix(ObjectSet(objs.items)).values
        report = permutation_test(objs, DepthMethod.MOD2, B=20, seed=4, dm=doubled)
        assert "_distances" not in vars(objs)
        plain = permutation_test(objs, DepthMethod.MOD2, B=20, seed=4)
        assert report.t_observed == 2.0 * plain.t_observed
        assert np.array_equal(report.t_permuted, 2.0 * plain.t_permuted)

    def test_tests_on_one_set_share_its_distances(self, monkeypatch):
        # one test per method and a label-swap experiment on one set build
        # the histograms' quantile table, and so the distance matrix, once
        objs = gen_histogram_groups(6, 6, 1.0, 8, seed=5)
        calls = []
        original = spaces_module._quantile_table

        def counting(items):
            calls.append(len(items))
            return original(items)

        monkeypatch.setattr(spaces_module, "_quantile_table", counting)
        for method in DepthMethod:
            permutation_test(objs, method, B=5, seed=6)
        label_swap_experiment(objs, ["MLD", "MOD3"], k=1, repeats=2, B=5, seed=7)
        assert calls == [12]


class TestPooledGroupDepths:
    """MOD2, MLD and MSD score every group of every draw from one table of
    pooled pair terms; MOD3 and MHD score the groups of a chunk of draws as
    one stack of distance sub-matrices. Every method's statistics stay
    bitwise those of ``deepest_in_sample`` run on each group's own distance
    sub-matrix, and no method scores a group on its own."""

    @pytest.mark.parametrize("kind", ["hist", "corr", "euclidean", "duplicates"])
    @pytest.mark.parametrize("method", list(DepthMethod))
    def test_statistics_equal_group_by_group_picks(self, kind, method):
        objs = grouped_sample(kind, 7, 12)
        dm = distance_matrix(objs)
        want = reference_statistics(dm, label_draws(objs.labels, 12, 6), method)
        report = permutation_test(objs, method, B=12, seed=6)
        assert report.t_observed == want[0]
        assert report.t_permuted.tobytes() == want[1:].tobytes()
        assert statistic_from_dm(dm, objs.labels, method) == want[0]

    @pytest.mark.parametrize("n1, n2", [(7, 12), (5, 18)])
    @pytest.mark.parametrize("method", list(DepthMethod))
    def test_small_blocks_and_leaves(self, n1, n2, method, monkeypatch):
        # with a target of 64 terms each row block holds one row, and a
        # pooled row (171 or 253 pairs) spans several leaves of up to 128;
        # a group of 18 has 153 pairs, so its gathered rows span two
        objs = grouped_sample("hist", n1, n2)
        want = reference_statistics(distance_matrix(objs), label_draws(objs.labels, 6, 7),
                                    method)
        monkeypatch.setattr(depths_module, "_BLOCK_TARGET", 64)
        report = permutation_test(objs, method, B=6, seed=7)
        assert report.t_observed == want[0]
        assert report.t_permuted.tobytes() == want[1:].tobytes()

    @pytest.mark.parametrize("target", [64, depths_module._BLOCK_TARGET])
    @pytest.mark.parametrize("method", sorted(depths_module._POOLED))
    def test_group_depths_are_each_groups_own(self, method, target, monkeypatch):
        # bitwise, so also where rounding would not move a pick
        objs = grouped_sample("corr", 5, 18)
        v = distance_matrix(objs).values
        draws = np.stack(label_draws(objs.labels, 4, 10))
        groups = [np.nonzero(draws == name)[1].reshape(len(draws), -1) for name in "AB"]
        want = [np.array([depth_values(v[np.ix_(g, g)], method) for g in group])
                for group in groups]
        monkeypatch.setattr(depths_module, "_BLOCK_TARGET", target)
        got = depths_module._group_depths(depths_module.sample_state(v, method), groups)
        assert [d.tobytes() for d in got] == [w.tobytes() for w in want]

    def test_label_swap_reports_unchanged(self, monkeypatch):
        objs = grouped_sample("corr", 7, 12)
        methods = [m.value for m in DepthMethod]
        got = label_swap_experiment(objs, methods, k=2, repeats=2, B=8, seed=8).to_dict()
        monkeypatch.setattr(inference_module, "_statistics",
                            lambda v, draws, names, method:
                            reference_statistics(v, draws, method))
        want = label_swap_experiment(objs, methods, k=2, repeats=2, B=8, seed=8).to_dict()
        assert got == want

    @pytest.mark.parametrize("method", sorted(depths_module._POOLED))
    def test_pair_terms_evaluated_once_whatever_the_draws(self, method, monkeypatch):
        # n C(n, 2) terms, one per (object, pooled pair), for any B: scoring
        # each draw's groups afresh would evaluate about B/4 times as many
        objs = grouped_sample("hist", 7, 12)
        shared, terms, *rest = depths_module._EVALUATE[method]
        evaluated = []

        def counting(*args, **kwargs):
            out = terms(*args, **kwargs)
            evaluated.append(out.size)
            return out

        monkeypatch.setitem(depths_module._EVALUATE, method, (shared, counting, *rest))
        for B in (1, 50):
            evaluated.clear()
            permutation_test(objs, method, B=B, seed=9)
            assert sum(evaluated) == 19 * math.comb(19, 2)


    def test_mod3_terms_built_in_two_blocks_per_group_array(self, monkeypatch):
        # every group array's reference objects are one block of kernels and
        # its survivors one more, for any B; scoring each group on its own
        # sub-matrix built them at least once per group, 102 times here
        objs = grouped_sample("hist", 7, 12)
        terms = depths_module._mod3_terms
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return terms(*args, **kwargs)

        shared, _, *rest = depths_module._EVALUATE[DepthMethod.MOD3]
        monkeypatch.setitem(depths_module._EVALUATE, DepthMethod.MOD3, (shared, counting, *rest))
        monkeypatch.setattr(depths_module, "_mod3_terms", counting)
        permutation_test(objs, DepthMethod.MOD3, B=50, seed=9)
        assert 2 <= len(calls) <= 4

    def test_mhd_groups_not_scored_one_by_one(self, monkeypatch):
        # no group's anchor-pair probabilities, and no depth tile: scoring
        # each group on its own sub-matrix called both 102 times here
        objs = grouped_sample("hist", 7, 12)
        want = reference_statistics(distance_matrix(objs), label_draws(objs.labels, 50, 9),
                                    DepthMethod.MHD)

        def refused(*args, **kwargs):
            raise AssertionError("a group was scored on its own")

        monkeypatch.setattr(depths_module, "mhd_pair_probabilities", refused)
        monkeypatch.setattr(depths_module, "_depths", refused)
        report = permutation_test(objs, DepthMethod.MHD, B=50, seed=9)
        assert report.t_observed == want[0]
        assert report.t_permuted.tobytes() == want[1:].tobytes()

    def test_mhd_group_of_more_than_255(self):
        # counts of a group of 260 need more than a byte: counted in one,
        # they wrap and move both groups' picks here
        objs = grouped_sample("euclidean", 8, 260)
        dm = distance_matrix(objs)
        want = reference_statistics(dm, label_draws(objs.labels, 1, 3), DepthMethod.MHD)
        report = permutation_test(objs, DepthMethod.MHD, B=1, seed=3, dm=dm)
        assert report.t_observed == want[0]
        assert report.t_permuted.tobytes() == want[1:].tobytes()

    def test_mod3_negative_cross_group_distance(self):
        # the pooled table is no distance table: groups that hold both ends
        # of the negative entry take the full pass, the others elimination
        objs = grouped_sample("hist", 7, 12)
        v = distance_matrix(objs).values.copy()
        labels = np.asarray(objs.labels)
        i, j = np.flatnonzero(labels == "A")[0], np.flatnonzero(labels == "B")[0]
        v[i, j] = -v[i, j]
        draws = label_draws(labels, 12, 6)
        together = [d[i] == d[j] for d in draws]
        assert any(together) and not all(together)
        want = reference_statistics(v, draws, DepthMethod.MOD3)
        report = permutation_test(objs, DepthMethod.MOD3, B=12, seed=6, dm=v)
        assert report.t_observed == want[0]
        assert report.t_permuted.tobytes() == want[1:].tobytes()

    @pytest.mark.parametrize("lowered", [False, True])
    @pytest.mark.parametrize("target", [200, depths_module._BLOCK_TARGET])
    def test_mod3_uncertified_pooled_sample_with_certified_groups(self, target, lowered,
                                                                  monkeypatch):
        # the pooled correlation sample fails the certificate; within each
        # group array some groups pass it (elimination by bounds) and some
        # fail (partial kernel sums), decided by one stacked test per chunk.
        # Here the object of lowest bound is the deepest of every failing
        # group; lowered to 0, the largest bound of each group puts another
        # object first, which the others must then beat (a lowered bound is
        # still a bound)
        objs = grouped_sample("corr", 9, 10)
        dm = distance_matrix(objs)
        assert not depths_module.euclidean_certificate(dm)
        draws = label_draws(objs.labels, 12, 6)
        for name in "AB":
            passes = [depths_module.euclidean_certificate(dm.values[np.ix_(g, g)])
                      for g in (np.flatnonzero(d == name) for d in draws)]
            assert any(passes) and not all(passes)
        want = reference_statistics(dm, draws, DepthMethod.MOD3)
        bounds = depths_module.mod3_lower_bounds

        def lowest_first(v):
            b = bounds(v)
            np.put_along_axis(b, np.argmax(b, axis=-1)[..., None], 0.0, axis=-1)
            return b

        if lowered:
            monkeypatch.setattr(depths_module, "mod3_lower_bounds", lowest_first)
        monkeypatch.setattr(depths_module, "_BLOCK_TARGET", target)
        report = permutation_test(objs, DepthMethod.MOD3, B=12, seed=6, dm=dm)
        assert report.t_observed == want[0]
        assert report.t_permuted.tobytes() == want[1:].tobytes()


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

    @pytest.mark.parametrize("n, B, seed, error", REFUSED_BEFORE_DISTANCES)
    def test_rejected_before_any_distance_work(self, n, B, seed, error, monkeypatch):
        refuse_distance_work(monkeypatch)
        objs = gen_histogram_groups(n, n, 1.0, 8, seed=2)
        with pytest.raises(error):
            label_swap_experiment(objs, ["MLD", "MOD3"], k=1, repeats=1, B=B, seed=seed)

    def test_mean_p_values_reported_per_method(self):
        objs = gen_histogram_groups(8, 8, 3.0, 15, seed=19)
        report = label_swap_experiment(objs, ["MOD3", "MOD2"], k=1, repeats=2, B=20, seed=20)
        for m in ("MOD3", "MOD2"):
            assert len(report.p_values[m]) == 2
            assert 0.0 <= report.mean_p_value(m) <= 1.0
