"""Distance-matrix container, its CSV I/O, and a metric-axiom check.

Everything downstream consumes objects only through pairwise distances.
This module holds the ``DistanceMatrix`` container, reading and writing it
as CSV, and a triangle-inequality checker for untrusted matrices.

All functions are pure; inputs are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError


class DistanceMatrix:
    """Symmetric nonnegative matrix of pairwise object distances.

    The constructor enforces a zero diagonal and symmetry (symmetrizing by
    averaging within tolerance, rejecting beyond it). The triangle
    inequality is intentionally not checked here -- it is O(n^3) and all
    production inputs come from verified metric constructors; call
    :func:`check_metric_axioms` explicitly for untrusted matrices.
    """

    __slots__ = ("_values",)

    def __init__(self, values) -> None:
        v = np.array(values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise InvalidArgumentError(f"distance matrix must be square, got shape {v.shape}")
        if v.size == 0:
            raise InvalidArgumentError("distance matrix must be nonempty")
        if not np.all(np.isfinite(v)):
            raise InvalidArgumentError("distance matrix entries must be finite")
        scale = max(1.0, float(np.max(np.abs(v))))
        if np.max(np.abs(v - v.T)) > 1e-9 * scale:
            raise InvalidArgumentError("distance matrix is not symmetric within 1e-9")
        if np.max(np.abs(np.diagonal(v))) > 1e-12 * scale:
            raise InvalidArgumentError("distance matrix diagonal is not zero within 1e-12")
        v = 0.5 * (v + v.T)
        np.fill_diagonal(v, 0.0)
        if np.min(v) < 0.0:
            raise InvalidArgumentError("distances must be nonnegative")
        v.flags.writeable = False
        self._values = v

    @property
    def values(self) -> np.ndarray:
        """The distances, read-only and not rebindable: an object set hands
        its one matrix to every caller."""
        return self._values

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def __repr__(self) -> str:
        return f"DistanceMatrix(n={self.n})"


def as_distance_array(dm) -> np.ndarray:
    """Raw ndarray view of a DistanceMatrix or array-like (no revalidation)."""
    return np.asarray(getattr(dm, "values", dm), dtype=float)


def sized_distance_array(dm, n: int) -> np.ndarray:
    """:func:`as_distance_array` of ``dm``, refused unless it is (n, n): a
    distance matrix given in place of ``n`` objects must cover exactly them."""
    v = as_distance_array(dm)
    if v.shape != (n, n):
        raise InvalidArgumentError(
            f"distance matrix of {n} objects must be {n} x {n}, got shape {v.shape}")
    return v


def read_distance_csv(path) -> DistanceMatrix:
    """Parse an n x n comma-separated distance matrix (no header)."""
    v = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    return DistanceMatrix(v)


def write_distance_csv(path, dm) -> None:
    v = as_distance_array(dm)
    with open(path, "w") as fh:
        for row in v:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


@dataclass(frozen=True)
class MetricCheckReport:
    """Outcome of a triangle-inequality scan over index triples."""

    violations: int
    max_violation: float
    worst_triple: tuple[int, int, int] | None
    triples_checked: int


def check_metric_axioms(dm, tol: float = 1e-9, sample_limit: int = 200,
                        sample_size: int = 2_000_000, seed: int = 0) -> MetricCheckReport:
    """Scan triples of ``dm`` for triangle-inequality violations.

    Enumerates all ordered triples up to ``sample_limit`` objects and samples
    ``sample_size`` random triples (seeded, deterministic) beyond that.
    A triple (i, k, j) violates when d(i,j) > d(i,k) + d(k,j) beyond
    ``tol * max entry``.
    """
    v = as_distance_array(dm)
    n = v.shape[0]
    scale = max(1.0, float(np.max(v)))
    if n <= sample_limit:
        # excess[i, k, j] = d(i,j) - d(i,k) - d(k,j)
        excess = v[:, None, :] - v[:, :, None] - v[None, :, :]
        checked = n**3
    else:
        rng = np.random.default_rng(seed)
        i = rng.integers(0, n, size=sample_size)
        k = rng.integers(0, n, size=sample_size)
        j = rng.integers(0, n, size=sample_size)
        excess = (v[i, j] - v[i, k] - v[k, j]).reshape(1, 1, -1)
        checked = sample_size
    worst_flat = int(np.argmax(excess))
    max_violation = float(excess.reshape(-1)[worst_flat])
    count = int(np.count_nonzero(excess > tol * scale))
    worst: tuple[int, int, int] | None = None
    if count > 0:
        if n <= sample_limit:
            worst = tuple(int(t) for t in np.unravel_index(worst_flat, (n, n, n)))
        else:
            worst = (int(i[worst_flat]), int(k[worst_flat]), int(j[worst_flat]))
    return MetricCheckReport(count, max_violation, worst, checked)
