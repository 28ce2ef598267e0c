"""Shared helpers for the test suite."""

import numpy as np
import pytest

from metricdepth import depths
from metricdepth.core import DistanceMatrix
from metricdepth.seeding import child_rng
from metricdepth.simulation import (
    CorrSimConfig,
    SphereSimConfig,
    gen_correlation_sample,
    gen_histogram_groups,
    gen_sphere_sample,
)
from metricdepth.spaces import distance_matrix


def euclidean_dm(points) -> DistanceMatrix:
    """Distance matrix of points given as an (n, p) array (or n-vector)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] == 1 and np.asarray(points).ndim == 1:
        pts = pts.T
    return DistanceMatrix(np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2))


def line_dm(values) -> DistanceMatrix:
    v = np.asarray(values, dtype=float)
    return DistanceMatrix(np.abs(v[:, None] - v[None, :]))


def nonmetric_dm() -> DistanceMatrix:
    """Symmetric, zero-diagonal 4 x 4 distances that no metric can produce:
    the MOD3 kernel radicand falls below its round-off tolerance."""
    off = {(0, 1): 2.771, (0, 2): 0.506, (0, 3): 0.264,
           (1, 2): 6.106, (1, 3): 7.322, (2, 3): 0.127}
    v = np.zeros((4, 4))
    for (a, b), d in off.items():
        v[a, b] = v[b, a] = d
    return DistanceMatrix(v)


def histogram_dm(n, seed):
    """Wasserstein distances of n histograms from two shifted groups."""
    groups = gen_histogram_groups(max(2, n - n // 2), max(2, n // 2), 1.0, 8, seed=seed)
    return DistanceMatrix(distance_matrix(groups).values[:n, :n])


def corr_dm(n, seed):
    """Affine-invariant distances of n correlation matrices (p=3)."""
    objects, _ = gen_correlation_sample(CorrSimConfig(p=3, n=n, eps=0.1, reps=1, seed=seed),
                                        child_rng(seed, 1))
    return distance_matrix(objects)


def sphere_dm(n, seed):
    """Geodesic distances of n points on the sphere in R^3."""
    objects, _ = gen_sphere_sample(SphereSimConfig(p=3, n=n, eps=0.1, reps=1, seed=seed),
                                   child_rng(seed, 1))
    return distance_matrix(objects)


def full_pass_tables(state, q) -> int:
    """How many tables of the depth ``state`` have every row among the query
    rows ``q`` of one ``depths._depths`` call, as a full pass scores them."""
    which = np.zeros(len(q), dtype=int) if state.which is None else state.which
    return sum(int(np.count_nonzero(which == t) == q.shape[1]) for t in np.unique(which))


def tile_terms(state, q, part=slice(None)) -> np.ndarray:
    """The per-tuple terms of the (rows, n) query distances ``q`` over
    ``part`` of the tuples of ``state``, as its method's term function
    builds them. They are built one query row at a time, and at most one
    scratch's width of tuples at a time, in scratch lent by
    ``depths._lent()``, and copied out before the scratch is given back."""
    shared, terms, _ = depths._EVALUATE[state.method]
    start, stop, _ = part.indices(state.index[0].size)
    width = max(depths._BLOCK_TARGET, depths._PAIRWISE_BLOCK)
    with depths._lent() as scratch:
        return np.concatenate([
            np.concatenate([terms(state, row, slice(a, min(a + width, stop)), scratch=scratch,
                                  **shared(state, row)).copy()
                            for a in range(start, stop, width)], axis=1)
            for row in np.split(q, len(q))])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
