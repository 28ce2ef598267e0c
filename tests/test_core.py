"""Tests for the distance container and its checks, and for the paper's
identities of the squared-distance kernels, checked on the kernels that the
depth evaluators compute (``_mod3_pairs``, ``_mod3_terms``, ``_mod2_terms``)."""

import numpy as np
import pytest

from conftest import euclidean_dm, line_dm, tile_terms
from metricdepth import depths
from metricdepth.core import (
    DistanceMatrix,
    check_metric_axioms,
    read_distance_csv,
    write_distance_csv,
)
from metricdepth.depths import KERNEL_RADICAND_TOL, DepthMethod, depth_of_query
from metricdepth.errors import InvalidArgumentError, MetricViolationError
from metricdepth.spaces import UnitVector, sphere_distance

LINE_024_PAIRS = np.array([[0, 2, 4], [2, 0, 2], [4, 2, 0]], dtype=float)


def b3_matrix(dx, dpair) -> np.ndarray:
    """B3 of a query at distances ``dx`` from three sample objects
    ``dpair`` apart, as the MOD3 evaluator builds it."""
    state = depths.sample_state(np.asarray(dpair, dtype=float), DepthMethod.MOD3)
    return depths._mod3_pairs(state, np.asarray(dx, dtype=float)[None]).reshape(3, 3)


def mod3_kernel(dx, dpair) -> float:
    """The MOD3 evaluator's kernel of one query against one sample triple."""
    state = depths.sample_state(np.asarray(dpair, dtype=float), DepthMethod.MOD3)
    return float(tile_terms(state, np.asarray(dx, dtype=float)[None])[0, 0])


def mod2_kernel(d1, d2, d12) -> float:
    """The MOD2 evaluator's kernel sqrt(det B2) of a query at distances
    ``d1``, ``d2`` from a sample pair ``d12`` apart."""
    state = depths.sample_state(np.array([[0.0, d12], [d12, 0.0]]), DepthMethod.MOD2)
    return float(tile_terms(state, np.array([[d1, d2]], dtype=float))[0, 0])


def euclidean_triples(rng, count, dim):
    """``count`` random queries, each with its own three points in R^dim:
    the points, the queries, their (count, 3) distances and (count, 3, 3)
    pair distances."""
    pts = rng.standard_normal((count, 3, dim))
    x = rng.standard_normal((count, dim))
    dx = np.linalg.norm(pts - x[:, None], axis=2)
    dpair = np.linalg.norm(pts[:, :, None] - pts[:, None, :], axis=3)
    return pts, x, dx, dpair


class TestIsBetween:
    """Betweenness, equality in the triangle inequality, is where the MOD2
    kernel vanishes: det B2 = 0 exactly when d12 = d1 + d2 or
    d12 = |d1 - d2|, that is when one of the three objects lies between the
    other two."""

    def test_collinear_points_on_line(self):
        assert mod2_kernel(1.0, 1.0, 2.0) == 0.0

    def test_equilateral_configuration(self):
        assert mod2_kernel(1.0, 1.0, 1.0) == pytest.approx(np.sqrt(0.75), rel=1e-15)

    def test_antipodal_circle_midpoint(self):
        # antipodal points on the unit circle with an arc midpoint, under the
        # package's arc length: d12 = pi, d1 = d2 = pi/2
        a, b, mid = UnitVector([1.0, 0.0]), UnitVector([-1.0, 0.0]), UnitVector([0.0, 1.0])
        d12 = sphere_distance(a, b)
        assert d12 == pytest.approx(np.pi, rel=1e-15)
        assert mod2_kernel(sphere_distance(mid, a), sphere_distance(mid, b), d12) == 0.0

    def test_negative_distance_rejected(self):
        with pytest.raises(InvalidArgumentError):
            depth_of_query([-1.0, 1.0], line_dm([0.0, 2.0]), DepthMethod.MOD2)

    def test_relative_tolerance_scales_with_d13(self):
        # the exact-zero snapping is relative: a near-between triple snaps to
        # zero, and a clearly off-line one does not, at every scale
        for scale in (1e-6, 1.0, 1e6):
            assert mod2_kernel(scale, scale * (1 + 1e-14), 2 * scale) == 0.0
            assert mod2_kernel(scale, scale * (1 + 1e-4), 2 * scale) > 0.0


class TestBMatrices:
    def test_hand_computed_line_example(self):
        # x = 1 against {0, 2, 4} on the line
        b = b3_matrix([1, 1, 3], LINE_024_PAIRS)
        assert np.array_equal(b, [[1, -1, -3], [-1, 1, 3], [-3, 3, 9]])

    def test_base_coincides_with_sample_point(self):
        b = b3_matrix([0, 2, 4], LINE_024_PAIRS)
        assert b[0, 0] == 0.0

    def test_equals_gram_matrix_in_r3(self, rng):
        for pts, x, dx, dpair in zip(*euclidean_triples(rng, 50, 3)):
            b = b3_matrix(dx, dpair)
            gram = (pts - x) @ (pts - x).T
            assert np.max(np.abs(b - gram)) < 1e-10 * max(1.0, np.abs(gram).max())

    def test_symmetric_nonnegative_diagonal(self, rng):
        for _, _, dx, dpair in zip(*euclidean_triples(rng, 100, 4)):
            b = b3_matrix(dx, dpair)
            assert np.array_equal(b, b.T)
            assert np.array_equal(np.diagonal(b), dx * dx)

    def test_b2_hand_example(self):
        # x = (0,1) against {(0,0), (1,0)}: Gram of (0,-1), (1,-1), det 1
        assert mod2_kernel(1.0, np.sqrt(2.0), 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_b2_zero_diagonal_when_query_on_point(self):
        assert mod2_kernel(0.0, 2.0, 2.0) == 0.0

    def test_b2_determinant_vanishes_on_line(self, rng):
        for _ in range(100):
            pts = rng.standard_normal(2)
            x = rng.standard_normal()
            assert mod2_kernel(*np.abs(pts - x), abs(pts[0] - pts[1])) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            depth_of_query([1, 1], LINE_024_PAIRS, DepthMethod.MOD3)
        with pytest.raises(InvalidArgumentError):
            depth_of_query([1, 1, 1], line_dm([0.0, 1.0, 2.0, 3.0]), DepthMethod.MOD3)


class TestOja3Kernel:
    def test_line_example_equals_six(self):
        assert mod3_kernel([1, 1, 3], LINE_024_PAIRS) == pytest.approx(6.0, abs=1e-12)

    def test_zero_when_base_on_sample_point(self):
        assert mod3_kernel([0, 2, 4], LINE_024_PAIRS) == 0.0

    def test_unit_circle_equality_configuration(self):
        # base and three points at 0, 90, 270, 180 degrees under arc length:
        # the radicand vanishes exactly in exact arithmetic
        dx = np.array([np.pi / 2, np.pi / 2, np.pi])
        dpair = np.array([
            [0.0, np.pi, np.pi / 2],
            [np.pi, 0.0, np.pi / 2],
            [np.pi / 2, np.pi / 2, 0.0],
        ])
        assert mod3_kernel(dx, dpair) < 1e-6

    def test_line_identity_two_prod(self, rng):
        # on the line the kernel equals twice the product of the distances
        for _ in range(200):
            pts = rng.standard_normal(3) * rng.choice([0.1, 1.0, 10.0])
            x = rng.standard_normal()
            dx = np.abs(pts - x)
            dpair = np.abs(pts[:, None] - pts[None, :])
            expected = 2.0 * dx.prod()
            scale = max(1.0, dx.max() ** 3)
            assert abs(mod3_kernel(dx, dpair) - expected) <= 1e-10 * scale

    def test_metric_violation_raises(self):
        # distances with a grossly broken triangle inequality drive the
        # radicand far below zero
        dx = np.array([1.0, 1.0, 1.0])
        dpair = np.array([[0, 10, 10], [10, 0, 10], [10, 10, 0]], dtype=float)
        with pytest.raises(MetricViolationError):
            mod3_kernel(dx, dpair)


class TestRadicandClamp:
    """A MOD3 radicand below zero by round-off, inside
    -KERNEL_RADICAND_TOL * max(1, prod), clamps to a zero kernel; one
    below that raises. Both are built by moving one pair distance of a
    configuration whose radicand is exactly zero."""

    @pytest.mark.parametrize("fraction, clamps", [(0.9, True), (1.1, False)])
    def test_query_on_a_sample_point(self, fraction, clamps):
        # x = 0 against {0, 2, 4} on the line: prod = 0, so the tolerance is
        # KERNEL_RADICAND_TOL itself. With d(X1, X2) moved to d, the radicand
        # is -16 c^2 with c = (4 - d^2) / 2
        c = np.sqrt(fraction * KERNEL_RADICAND_TOL / 16)
        d = np.sqrt(4 + 2 * c)
        dpair = [[0, d, 4], [d, 0, 2], [4, 2, 0]]
        if clamps:
            assert mod3_kernel([0, 2, 4], dpair) == 0.0
        else:
            with pytest.raises(MetricViolationError):
                mod3_kernel([0, 2, 4], dpair)

    @pytest.mark.parametrize("fraction, clamps", [(0.9, True), (1.1, False)])
    def test_unit_circle_configuration(self, fraction, clamps):
        # base and three points at 0, 90, 270, 180 degrees under arc length:
        # prod = pi^6 / 16 > 1, so the tolerance is relative. Lengthening
        # d(X1, X2) = pi by delta lowers the radicand by pi^5 delta, to first
        # order
        prod = np.pi ** 6 / 16
        d = np.pi + fraction * KERNEL_RADICAND_TOL * prod / np.pi ** 5
        dx = [np.pi / 2, np.pi / 2, np.pi]
        dpair = [[0, d, np.pi / 2], [d, 0, np.pi / 2], [np.pi / 2, np.pi / 2, 0]]
        if clamps:
            assert mod3_kernel(dx, dpair) == 0.0
        else:
            with pytest.raises(MetricViolationError):
                mod3_kernel(dx, dpair)


class TestTheoremBounds:
    def test_det2_lower_bound_euclidean_fuzz(self, rng):
        # det B2 is the squared area spanned by X1 - x and X2 - x, so the
        # MOD2 kernel is that area (a clamped negative det would show as 0)
        for pts, x, dx, dpair in zip(*euclidean_triples(rng, 1000, 3)):
            area = np.linalg.norm(np.cross(pts[0] - x, pts[1] - x))
            scale = max(1.0, dx[:2].max() ** 2)
            assert abs(mod2_kernel(dx[0], dx[1], dpair[0, 1]) - area) <= 1e-6 * scale

    def test_radicand_lower_bound_euclidean_fuzz(self, rng):
        # det B3 >= 0 on Euclidean data, so the kernel is at least
        # 2 d_i d_j d_k: the bound the in-sample MOD3 elimination rests on
        # (tight for dim <= 2, where det B3 = 0)
        for dim in (1, 2, 3, 5):
            pts = rng.standard_normal((12, dim))
            queries = np.vstack([pts, rng.standard_normal((30, dim))])
            q = np.linalg.norm(queries[:, None] - pts, axis=2)
            state = depths.sample_state(euclidean_dm(pts), DepthMethod.MOD3)
            i, j, k = state.index[:3]
            bound = 2.0 * q[:, i] * q[:, j] * q[:, k]
            kernels = tile_terms(state, q)
            assert np.all(kernels >= bound - 1e-9 * np.maximum(1.0, bound))


class TestDistanceMatrix:
    def test_valid_construction(self):
        dm = DistanceMatrix([[0, 1], [1, 0]])
        assert dm.n == 2
        assert not dm.values.flags.writeable

    def test_small_asymmetry_averaged(self):
        dm = DistanceMatrix([[0, 1 + 1e-12], [1, 0]])
        assert dm.values[0, 1] == dm.values[1, 0]

    def test_gross_asymmetry_rejected(self):
        with pytest.raises(InvalidArgumentError):
            DistanceMatrix([[0, 2], [1, 0]])

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(InvalidArgumentError):
            DistanceMatrix([[1e-3, 1], [1, 0]])

    def test_negative_entry_rejected(self):
        with pytest.raises(InvalidArgumentError):
            DistanceMatrix([[0, -1], [-1, 0]])

    def test_nonsquare_rejected(self):
        with pytest.raises(InvalidArgumentError):
            DistanceMatrix(np.zeros((2, 3)))

    def test_csv_roundtrip(self, tmp_path):
        dm = line_dm([0.0, 1.25, 3.5])
        path = tmp_path / "dm.csv"
        write_distance_csv(path, dm)
        back = read_distance_csv(path)
        assert np.array_equal(back.values, dm.values)

    def test_csv_symmetrizes_by_averaging(self, tmp_path):
        path = tmp_path / "dm.csv"
        path.write_text("0,1.0000000001\n1,0\n")
        back = read_distance_csv(path)
        assert back.values[0, 1] == pytest.approx(1.00000000005, rel=1e-15)


class TestCheckMetricAxioms:
    def test_euclidean_matrix_clean(self, rng):
        dm = euclidean_dm(rng.standard_normal((30, 4)))
        report = check_metric_axioms(dm)
        assert report.violations == 0

    def test_constructed_breach_detected(self, rng):
        v = euclidean_dm(rng.standard_normal((10, 2))).values.copy()
        v[0, 1] = v[1, 0] = 10 * (v[0, 2] + v[2, 1])
        report = check_metric_axioms(DistanceMatrix(v))
        assert report.violations >= 1
        assert report.worst_triple is not None
        i, k, j = report.worst_triple
        assert {i, j} == {0, 1}

    def test_arc_length_is_metric(self, rng):
        from metricdepth.spaces import ObjectSet, UnitVector, distance_matrix

        vecs = rng.standard_normal((50, 4))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        dm = distance_matrix(ObjectSet(tuple(UnitVector(v) for v in vecs)))
        assert check_metric_axioms(dm).violations == 0

    def test_sampling_branch_above_limit(self, rng):
        dm = euclidean_dm(rng.standard_normal((25, 2)))
        report = check_metric_axioms(dm, sample_limit=10, sample_size=5000)
        assert report.violations == 0
        assert report.triples_checked == 5000
