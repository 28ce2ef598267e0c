"""Independent reference depths, used as oracles against the package's
evaluators. Nothing here shares code with ``metricdepth.depths``."""

from itertools import combinations

import numpy as np

from metricdepth.errors import InsufficientSampleError, InvalidArgumentError


def euclidean_oja_depth(points, x) -> float:
    """Simplex-volume depth of ``x`` w.r.t. points in R^p.

    1/(1 + mean over C(n, p) index tuples of |det[X_1 - x | ... | X_p - x]|).
    Serves as the independent Euclidean oracle for the kernel depths; the
    determinant convention carries no 1/p! simplex factor.
    """
    pts = np.asarray([getattr(o, "coords", o) for o in points], dtype=float)
    xc = np.asarray(getattr(x, "coords", x), dtype=float)
    if pts.ndim != 2:
        raise InvalidArgumentError("points must form an (n, p) array")
    n, p = pts.shape
    if xc.shape != (p,):
        raise InvalidArgumentError(f"query must have dimension {p}, got {xc.shape}")
    if n < p:
        raise InsufficientSampleError(f"need at least p={p} points, got {n}")
    idx = np.array(list(combinations(range(n), p)), dtype=np.int64)
    diffs = pts[idx] - xc  # (C, p, p); rows are X_sel - x
    dets = np.abs(np.linalg.det(diffs))
    return float(1.0 / (1.0 + dets.mean()))


def mod3_depth_brute_force(q, dm) -> float:
    """MOD3 depth of one query by the paper's definition, triple by triple.

    For each index triple i<j<k the 3x3 matrix B3 has entries
    (d(x,X_a)^2 + d(x,X_b)^2 - d(X_a,X_b)^2) / 2, and the kernel is
    sqrt(det B3 + 4 d(x,X_i)^2 d(x,X_j)^2 d(x,X_k)^2), with ``np.linalg.det``
    for the determinant and negative radicands (round-off) taken as 0. The
    depth is 1/(1 + mean kernel).
    """
    q = np.asarray(q, dtype=float)
    v = np.asarray(getattr(dm, "values", dm), dtype=float)
    idx = np.array(list(combinations(range(v.shape[0]), 3)), dtype=np.int64)
    a = (q * q)[idx]  # (C, 3)
    b = 0.5 * (a[:, :, None] + a[:, None, :] - v[idx[:, :, None], idx[:, None, :]] ** 2)
    rad = np.linalg.det(b) + 4.0 * a.prod(axis=1)
    return float(1.0 / (1.0 + np.sqrt(np.maximum(rad, 0.0)).mean()))


def mhd_depth_brute_force(q, dm) -> float:
    """MHD depth of one query by its definition, anchor pair by anchor pair.

    The least, over the ordered pairs a1 != a2 with d(x, X_a1) <= d(x, X_a2),
    of the fraction of sample points at least as close to X_a1 as to X_a2;
    1 when no pair qualifies (n = 1).
    """
    q = np.asarray(q, dtype=float)
    v = np.asarray(getattr(dm, "values", dm), dtype=float)
    n = v.shape[0]
    return min([np.count_nonzero(v[:, a1] <= v[:, a2]) / n
                for a1 in range(n) for a2 in range(n) if a1 != a2 and q[a1] <= q[a2]],
               default=1.0)


def floyd_sample(total: int, m: int, rng: np.random.Generator) -> list:
    """Uniform m-subset of range(total) by Floyd's algorithm, sorted: for
    t = total - m, ..., total - 1, draw r uniform on [0, t] with one scalar
    call, and take r, or t when r is already taken."""
    chosen = set()
    for t in range(total - m, total):
        r = int(rng.integers(0, t + 1))
        chosen.add(t if r in chosen else r)
    return sorted(chosen)
