"""Tests for the concrete metric spaces and their file formats."""

import json

import numpy as np
import pytest

from metricdepth import spaces
from metricdepth.errors import InvalidArgumentError, NotPositiveDefiniteError
from metricdepth.spaces import (
    CorrelationMatrix,
    EuclideanPoint,
    Histogram,
    ObjectSet,
    UnitVector,
    distance_matrix,
    dump_objects,
    euclidean_distance,
    load_histogram_csv,
    load_objects,
    query_distances,
    spd_distance,
    sphere_distance,
    wasserstein2_distance,
)


def random_spd(rng, p, scale=1.0):
    a = rng.standard_normal((p, p))
    return a @ a.T + scale * np.eye(p)


def random_unit(rng, p):
    v = rng.standard_normal(p)
    return v / np.linalg.norm(v)


def random_histogram(rng, bins=6):
    masses = rng.random(bins)
    masses /= masses.sum()
    edges = np.cumsum(np.abs(rng.normal(1.0, 0.4, bins + 1))) + rng.normal(0, 2)
    return Histogram(edges, masses)


def random_object(rng, kind):
    if kind == "corr":
        s = random_spd(rng, 3)
        d = np.sqrt(np.diagonal(s))
        return CorrelationMatrix(s / np.outer(d, d))
    if kind == "sphere":
        return UnitVector(random_unit(rng, 4))
    if kind == "hist":
        return random_histogram(rng)
    return EuclideanPoint(rng.standard_normal(3))


def quantile_oracle(h, t):
    """Brute-force quantile of the piecewise-uniform distribution."""
    c = np.concatenate([[0.0], np.cumsum(h.masses)])
    c /= c[-1]
    out = np.empty_like(t)
    for idx, tt in enumerate(t):
        j = int(np.searchsorted(c, min(tt, 1.0 - 1e-15), side="right")) - 1
        j = min(max(j, 0), len(h.masses) - 1)
        while c[j + 1] == c[j]:
            j += 1
        out[idx] = h.edges[j] + (tt - c[j]) * (h.edges[j + 1] - h.edges[j]) / (c[j + 1] - c[j])
    return out


class TestSpdDistance:
    def test_identity_case(self, rng):
        x = random_spd(rng, 4)
        assert spd_distance(x, x) < 1e-9

    def test_commuting_diagonal_closed_form(self):
        assert spd_distance(np.eye(2), 4 * np.eye(2)) == pytest.approx(
            np.log(4.0) * np.sqrt(2.0), rel=1e-12
        )

    def test_symmetry_on_random_pairs(self, rng):
        for _ in range(100):
            a, b = random_spd(rng, 3), random_spd(rng, 3)
            assert abs(spd_distance(a, b) - spd_distance(b, a)) < 1e-9

    def test_affine_invariance(self, rng):
        for _ in range(50):
            a, b = random_spd(rng, 3), random_spd(rng, 3)
            m = rng.standard_normal((3, 3))
            while abs(np.linalg.det(m)) < 1e-2:
                m = rng.standard_normal((3, 3))
            d1 = spd_distance(a, b)
            d2 = spd_distance(m.T @ a @ m, m.T @ b @ m)
            assert abs(d1 - d2) < 1e-8 * max(1.0, d1)

    def test_not_positive_definite_rejected(self):
        bad = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(NotPositiveDefiniteError):
            spd_distance(bad, np.eye(2))

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            spd_distance(np.eye(2), np.eye(3))


class TestSphereDistance:
    def test_orthogonal(self):
        assert sphere_distance(UnitVector([1, 0]), UnitVector([0, 1])) == pytest.approx(np.pi / 2)

    def test_antipodal(self):
        u = UnitVector([0.6, 0.8])
        v = UnitVector([-0.6, -0.8])
        assert sphere_distance(u, v) == pytest.approx(np.pi)

    def test_identity_exact_zero(self, rng):
        u = UnitVector(random_unit(rng, 5))
        assert sphere_distance(u, u) == 0.0

    def test_rotation_invariance(self, rng):
        from metricdepth.simulation import random_orthogonal

        for _ in range(50):
            u, v = random_unit(rng, 4), random_unit(rng, 4)
            r = random_orthogonal(4, rng)
            d1 = sphere_distance(UnitVector(u), UnitVector(v))
            d2 = sphere_distance(UnitVector(r @ u / np.linalg.norm(r @ u)),
                                 UnitVector(r @ v / np.linalg.norm(r @ v)))
            assert abs(d1 - d2) < 1e-10

    def test_agrees_with_arccos_inner_product(self, rng):
        for _ in range(200):
            u, v = random_unit(rng, 3), random_unit(rng, 3)
            expected = np.arccos(np.clip(np.dot(u, v), -1.0, 1.0))
            assert sphere_distance(UnitVector(u), UnitVector(v)) == pytest.approx(
                expected, abs=1e-7
            )

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            sphere_distance(UnitVector([1, 0]), UnitVector([1, 0, 0]))


class TestWassersteinDistance:
    def test_shift_by_constant(self, rng):
        h = random_histogram(rng)
        shifted = Histogram(h.edges + 2.5, h.masses)
        assert wasserstein2_distance(h, shifted) == pytest.approx(2.5, rel=1e-12)

    def test_uniform_vs_stretched_uniform(self):
        h1 = Histogram([0.0, 1.0], [1.0])
        h2 = Histogram([0.0, 2.0], [1.0])
        assert wasserstein2_distance(h1, h2) == pytest.approx(1.0 / np.sqrt(3.0), rel=1e-12)

    def test_identity(self, rng):
        h = random_histogram(rng)
        assert wasserstein2_distance(h, h) == 0.0

    def test_translation_equivariance(self, rng):
        for _ in range(50):
            h1, h2 = random_histogram(rng), random_histogram(rng)
            d1 = wasserstein2_distance(h1, h2)
            d2 = wasserstein2_distance(
                Histogram(h1.edges + 7.0, h1.masses), Histogram(h2.edges + 7.0, h2.masses)
            )
            assert abs(d1 - d2) < 1e-10 * max(1.0, d1)

    def test_against_quadrature_oracle(self, rng):
        ts = (np.arange(200_000) + 0.5) / 200_000
        for _ in range(10):
            h1, h2 = random_histogram(rng), random_histogram(rng, bins=9)
            exact = wasserstein2_distance(h1, h2)
            grid = np.sqrt(np.mean((quantile_oracle(h1, ts) - quantile_oracle(h2, ts)) ** 2))
            assert exact == pytest.approx(grid, abs=5e-4 * max(1.0, exact))

    def test_zero_mass_bins_handled(self):
        h1 = Histogram([0, 1, 2, 3], [0.0, 1.0, 0.0])
        h2 = Histogram([0, 1, 2, 3], [0.5, 0.0, 0.5])
        with np.errstate(all="raise"):
            d = wasserstein2_distance(h1, h2)
        assert np.isfinite(d) and d > 0


def w2_pair_reference(h1, h2):
    """Per-pair closed form of the order-2 Wasserstein distance: the two
    cumulative breakpoint sets merged, and on each merged sub-interval the
    squared difference of the two linear quantile pieces integrated exactly."""

    def cumulative(h):
        c = np.concatenate(([0.0], np.cumsum(h.masses)))
        c /= c[-1]
        c[-1] = 1.0
        return c

    def on_pieces(h, c, t, mid):
        j = np.searchsorted(c, mid, side="right") - 1
        positive = np.nonzero(np.diff(c) > 0)[0]
        j = np.clip(j, positive[0], positive[-1])
        e = h.edges
        return e[j] + (t - c[j]) * (e[j + 1] - e[j]) / (c[j + 1] - c[j])

    c1, c2 = cumulative(h1), cumulative(h2)
    ts = np.union1d(c1, c2)
    t0, t1 = ts[:-1], ts[1:]
    mid = 0.5 * (t0 + t1)
    g0 = on_pieces(h1, c1, t0, mid) - on_pieces(h2, c2, t0, mid)
    g1 = on_pieces(h1, c1, t1, mid) - on_pieces(h2, c2, t1, mid)
    total = np.sum((t1 - t0) * (g0 * g0 + g0 * g1 + g1 * g1) / 3.0)
    return float(np.sqrt(max(total, 0.0)))


def mixed_bin_histograms(rng, n=30):
    return [random_histogram(rng, bins=int(rng.integers(1, 21))) for _ in range(n)]


def zero_mass_histograms(rng, n=30):
    items = []
    for k in range(n):
        bins = int(rng.integers(3, 12))
        masses = rng.random(bins) * (rng.random(bins) > 0.3)
        masses[0] *= k % 3 != 0  # leading empty bin
        masses[-1] *= k % 2 != 0  # trailing empty bin
        masses[bins // 2] += 0.1
        edges = np.cumsum(np.abs(rng.normal(1.0, 0.4, bins + 1)))
        items.append(Histogram(edges, masses / masses.sum()))
    return items


def disjoint_histograms(rng, n=30):
    # histogram k lives on [10k, 10k + 8) at most
    return [Histogram(np.linspace(10.0 * k, 10.0 * k + rng.uniform(1, 8), 6),
                      rng.dirichlet(np.ones(5)))
            for k in range(n)]


def shared_breakpoint_histograms(rng, n=30):
    # one mass vector for all, so every cumulative breakpoint is shared;
    # object 5 repeats object 0
    masses = rng.dirichlet(np.ones(7))
    items = [Histogram(np.cumsum(np.abs(rng.normal(1.0, 0.4, 8))), masses) for _ in range(n)]
    items[5] = items[0]
    return items


class TestWassersteinMergedGrid:
    """Histogram distances come from one merged breakpoint grid per call."""

    @pytest.mark.parametrize("make", [mixed_bin_histograms, zero_mass_histograms,
                                      disjoint_histograms, shared_breakpoint_histograms])
    def test_matrix_and_query_rows(self, make, rng):
        items = make(rng)
        objs = ObjectSet(tuple(items))
        n = len(items)
        with np.errstate(all="raise"):
            dm = distance_matrix(objs).values
            rows = [query_distances(h, objs) for h in items]
        ref = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                ref[i, j] = ref[j, i] = w2_pair_reference(items[i], items[j])
        assert np.all(np.abs(dm - ref) <= 1e-12 * ref)
        assert np.all(np.diagonal(dm) == 0.0)
        assert np.array_equal(dm, dm.T)
        for i in range(n):
            assert np.array_equal(rows[i], dm[i]), i

    def test_query_outside_sample(self, rng):
        # the query's own breakpoints join the grid
        sample = ObjectSet(tuple(zero_mass_histograms(rng)))
        for h in mixed_bin_histograms(rng, n=5):
            ref = np.array([w2_pair_reference(h, o) for o in sample.items])
            assert np.all(np.abs(query_distances(h, sample) - ref) <= 1e-12 * ref)

    def test_pair_function_matches_reference(self, rng):
        for h1, h2 in zip(mixed_bin_histograms(rng), zero_mass_histograms(rng)):
            ref = w2_pair_reference(h1, h2)
            assert abs(wasserstein2_distance(h1, h2) - ref) <= 1e-12 * ref

    def test_non_histogram_rejected(self):
        with pytest.raises(InvalidArgumentError):
            wasserstein2_distance(Histogram([0.0, 1.0], [1.0]), EuclideanPoint([0.0]))


class TestEuclideanDistance:
    def test_pythagorean(self):
        assert euclidean_distance(EuclideanPoint([0, 0]), EuclideanPoint([3, 4])) == 5.0

    def test_identity(self):
        p = EuclideanPoint([1.5, -2.5])
        assert euclidean_distance(p, p) == 0.0

    def test_one_dimensional(self):
        assert euclidean_distance(EuclideanPoint([0.0]), EuclideanPoint([2.0])) == 2.0

    def test_raw_input_must_be_a_vector(self):
        with pytest.raises(InvalidArgumentError):
            euclidean_distance(np.zeros((2, 2)), np.ones((2, 2)))
        with pytest.raises(InvalidArgumentError):
            sphere_distance(np.array(1.0), np.array(1.0))


class TestObjectTypes:
    def test_correlation_invariants(self):
        with pytest.raises(InvalidArgumentError):
            CorrelationMatrix([[1.0, 0.2], [0.2, 1.1]])
        with pytest.raises(NotPositiveDefiniteError):
            CorrelationMatrix([[1.0, 1.0], [1.0, 1.0]])

    def test_unit_vector_norm_enforced(self):
        with pytest.raises(InvalidArgumentError):
            UnitVector([1.0, 1.0])

    def test_histogram_invariants(self):
        with pytest.raises(InvalidArgumentError):
            Histogram([0, 0, 1], [0.5, 0.5])  # non-increasing edges
        with pytest.raises(InvalidArgumentError):
            Histogram([0, 1, 2], [0.7, 0.7])  # masses exceed 1
        with pytest.raises(InvalidArgumentError):
            Histogram([0, 1, 2], [-0.5, 1.5])

    def test_correlation_checks_raise_in_order(self, rng):
        good = random_object(rng, "corr").entries
        assert CorrelationMatrix(good).entries.tobytes() == good.tobytes()
        cases = [
            ([[1.0, np.nan, 0.0], [0.2, 1.0, 0.0], [0.0, 0.0, 1.0]],
             InvalidArgumentError, "correlation matrix entries must be finite"),
            ([[1.0, 0.3, 0.0], [0.2, 1.0, 0.0], [0.0, 0.0, 1.0]],
             InvalidArgumentError, "correlation matrix must be symmetric"),
            ([[1.1, 0.2, 0.0], [0.2, 1.0, 0.0], [0.0, 0.0, 1.0]],
             InvalidArgumentError, "correlation matrix diagonal must be 1 within 1e-10"),
            ([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
             NotPositiveDefiniteError, "correlation matrix is not positive definite"),
            # fails every check: the first one wins
            ([[np.inf, 2.0, 0.0], [0.2, 1.1, 0.0], [0.0, 0.0, -1.0]],
             InvalidArgumentError, "correlation matrix entries must be finite"),
        ]
        for e, error, message in cases:
            with pytest.raises(error, match=f"^{message}$"):
                CorrelationMatrix(e)

    def test_object_set_rejects_mixed_kinds(self):
        with pytest.raises(InvalidArgumentError):
            ObjectSet((EuclideanPoint([0.0]), UnitVector([1.0])))

    def test_object_set_rejects_mixed_dimensions(self):
        with pytest.raises(InvalidArgumentError, match="dimensions"):
            ObjectSet((CorrelationMatrix(np.eye(3)), CorrelationMatrix(np.eye(4))))
        with pytest.raises(InvalidArgumentError, match="dimensions"):
            ObjectSet((EuclideanPoint([0.0, 1.0]), EuclideanPoint([0.0])))
        # histograms may differ in bin count
        ObjectSet((Histogram([0.0, 1.0], [1.0]), Histogram([0.0, 1.0, 2.0], [0.5, 0.5])))

    def test_object_set_label_length(self):
        with pytest.raises(InvalidArgumentError):
            ObjectSet((EuclideanPoint([0.0]),), ("A", "B"))


class TestDistanceMatrixConstruction:
    def test_collinear_points(self):
        objs = ObjectSet(tuple(EuclideanPoint([float(x)]) for x in (0, 1, 2)))
        assert np.array_equal(
            distance_matrix(objs).values, [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
        )

    def test_identical_objects_zero_matrix(self):
        p = EuclideanPoint([1.0, 2.0])
        objs = ObjectSet((p, p, p, p))
        assert np.all(distance_matrix(objs).values == 0.0)

    def test_circle_at_right_angles(self):
        objs = ObjectSet(tuple(
            UnitVector([np.cos(t), np.sin(t)])
            for t in (0.0, np.pi / 2, np.pi, 3 * np.pi / 2)
        ))
        off = distance_matrix(objs).values[np.triu_indices(4, 1)]
        assert np.allclose(np.sort(off), [np.pi / 2] * 4 + [np.pi] * 2, atol=1e-12)

    def test_query_distances_matches_matrix_row(self, rng):
        # the matrix evaluates pair (i, j), j > i, as query i against object
        # j, so that half of each row is the query row exactly
        for kind in ("corr", "sphere", "hist", "eucl"):
            objs = ObjectSet(tuple(random_object(rng, kind) for _ in range(7)))
            dm = distance_matrix(objs).values
            for i in range(len(objs)):
                q = query_distances(objs.items[i], objs)
                assert np.array_equal(q[i + 1:], dm[i, i + 1:]), (kind, i)
                assert np.allclose(q, dm[i], rtol=0.0, atol=1e-12), (kind, i)

    def test_sample_stack_built_once(self, rng):
        objs = ObjectSet(tuple(random_object(rng, "corr") for _ in range(5)))
        dm = distance_matrix(objs).values
        stack = objs._table
        assert not stack.flags.writeable
        for i in range(5):
            assert np.array_equal(query_distances(objs.items[i], objs)[i + 1:], dm[i, i + 1:])
        assert objs._table is stack

    @pytest.mark.parametrize("kind", ["corr", "sphere", "hist", "eucl"])
    def test_query_block_rows_equal_single_queries(self, kind, rng):
        objs = ObjectSet(tuple(random_object(rng, kind) for _ in range(9)))
        queries = [random_object(rng, kind) for _ in range(5)]
        table = None if kind == "hist" else objs._table
        block = spaces._query_rows(kind, queries, objs.items, table)
        assert block.shape == (5, 9)
        for x, row in zip(queries, block):
            assert row.tobytes() == query_distances(x, objs).tobytes()

    def test_query_kind_mismatch(self):
        objs = ObjectSet((EuclideanPoint([0.0]), EuclideanPoint([1.0])))
        with pytest.raises(InvalidArgumentError):
            query_distances(UnitVector([1.0]), objs)


class TestMetricAxiomFuzz:
    """Every metric satisfies identity, symmetry, triangle inequality."""

    @pytest.mark.parametrize("space", ["corr", "sphere", "hist", "eucl"])
    def test_random_triples(self, space, rng):
        dist = {
            "corr": spd_distance,
            "sphere": sphere_distance,
            "hist": wasserstein2_distance,
            "eucl": euclidean_distance,
        }[space]
        for _ in range(250):
            x, y, z = (random_object(rng, space) for _ in range(3))
            dxy, dyx = dist(x, y), dist(y, x)
            scale = max(1.0, dxy)
            assert dist(x, x) <= 1e-9
            assert abs(dxy - dyx) <= 1e-9 * scale
            assert dist(x, z) <= dxy + dist(y, z) + 1e-8 * scale


class TestJsonFormats:
    def test_roundtrip_all_kinds(self, tmp_path, rng):
        sets = [
            ObjectSet(tuple(EuclideanPoint(rng.standard_normal(2)) for _ in range(3))),
            ObjectSet(tuple(UnitVector(random_unit(rng, 3)) for _ in range(3))),
            ObjectSet(tuple(random_histogram(rng) for _ in range(3)), ("A", "A", "B")),
        ]
        for idx, objs in enumerate(sets):
            path = tmp_path / f"set{idx}.json"
            dump_objects(objs, path)
            back = load_objects(path)
            assert back.kind == objs.kind
            assert back.labels == objs.labels
            assert len(back) == len(objs)

    def test_sphere_normalized_within_tolerance(self, tmp_path):
        path = tmp_path / "s.json"
        coords = [0.6, 0.8]
        slightly_off = [c * (1 + 5e-7) for c in coords]
        path.write_text(json.dumps([{"kind": "sphere", "coords": slightly_off}]))
        loaded = load_objects(path)
        assert abs(np.linalg.norm(loaded.items[0].coords) - 1.0) < 1e-12

    def test_sphere_rejected_beyond_tolerance(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps([{"kind": "sphere", "coords": [1.5, 0.0]}]))
        with pytest.raises(InvalidArgumentError, match="object 0"):
            load_objects(path)

    def test_error_names_offending_index(self, tmp_path):
        path = tmp_path / "s.json"
        records = [{"kind": "eucl", "coords": [0.0]}, {"kind": "eucl", "coords": []}]
        path.write_text(json.dumps(records))
        with pytest.raises(InvalidArgumentError, match="object 1"):
            load_objects(path)

    def test_empty_dataset_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        with pytest.raises(InvalidArgumentError):
            load_objects(path)

    def test_corr_roundtrip_values(self, tmp_path, rng):
        s = random_spd(rng, 3)
        d = np.sqrt(np.diagonal(s))
        x = CorrelationMatrix(s / np.outer(d, d))
        path = tmp_path / "c.json"
        dump_objects(ObjectSet((x,)), path)
        back = load_objects(path).items[0]
        assert np.allclose(back.entries, x.entries, atol=1e-15)


class TestHistogramCsv:
    def test_roundtrip_format(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text(
            "A,0.0,0.25,1.0,0.75,2.0\n"
            "B,0.0,0.5,1.5,0.5,3.0\n"
        )
        objs = load_histogram_csv(path)
        assert objs.kind == "hist"
        assert objs.labels == ("A", "B")
        assert np.array_equal(objs.items[0].edges, [0.0, 1.0, 2.0])
        assert np.array_equal(objs.items[0].masses, [0.25, 0.75])

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("A,0.0,0.25,1.0\n")
        with pytest.raises(InvalidArgumentError, match="row 0"):
            load_histogram_csv(path)
