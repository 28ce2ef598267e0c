"""Shared helpers for the test suite."""

import numpy as np
import pytest

from metricdepth.core import DistanceMatrix


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
