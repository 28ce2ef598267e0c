"""Independent computations and output checks for the benchmark.

Nothing here calls into ``metricdepth``. Each function recomputes a
program output from first principles (or tests a property the program
documents) and raises :class:`CheckFailed` on disagreement:

* SPD distances from the generalized eigenvalues of (B, A);
* Wasserstein-2 distances by integrating the two piecewise-linear
  quantile functions on a fine grid;
* MOD3 from ``det(B3) + 4 * prod(d^2)`` with ``np.linalg.det`` on stacked
  3x3 matrices, over all triples of the sample (self-triples kept, as in
  full-sample evaluation);
* MLD by counting pairs; MSD from its cosine formula;
* permutation p-values recounted from the permuted statistics.

Every depth check takes the program's own distances as input, so a
rounding difference in a distance cannot flip a tie in a discrete depth.
"""

from __future__ import annotations

import io
import itertools
from functools import lru_cache

import numpy as np
import scipy.linalg

# relative agreement required between the program and a recomputation
# that differs from it only by floating-point evaluation order
RTOL = 1e-9
# the grid-integrated Wasserstein distance is an approximation
W2_GRID = 20_000
W2_RTOL = 1e-5


class CheckFailed(Exception):
    """A program output disagrees with its independent computation."""


def _close(got, want, rtol, what, atol=0.0):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckFailed(f"{what}: shape {got.shape} != {want.shape}")
    err = np.abs(got - want)
    limit = atol + rtol * np.abs(want)
    if np.any(~np.isfinite(got)) or np.any(err > limit):
        worst = int(np.argmax(err - limit))
        raise CheckFailed(f"{what}: entry {worst} is {got.flat[worst]!r}, "
                          f"expected {want.flat[worst]!r} (rtol {rtol})")


# ---------------------------------------------------------------------------
# distances


def spd_distance(a, b) -> float:
    """Affine-invariant distance from the generalized eigenvalues of (b, a)."""
    w = scipy.linalg.eigh(np.asarray(b, dtype=float), np.asarray(a, dtype=float),
                          eigvals_only=True)
    return float(np.sqrt(np.sum(np.log(w) ** 2)))


def check_spd_distances(mats, dm, pairs, what="SPD distance"):
    """``dm[i, j]`` against :func:`spd_distance` for each (i, j) in ``pairs``."""
    dm = np.asarray(dm, dtype=float)
    got = [dm[i, j] for i, j in pairs]
    want = [spd_distance(mats[i], mats[j]) for i, j in pairs]
    _close(got, want, RTOL, what, atol=1e-12)


def check_spd_query(mats, query, q, what="query distance"):
    """Query-to-sample distances against :func:`spd_distance`."""
    want = [spd_distance(query, m) for m in mats]
    _close(q, want, RTOL, what, atol=1e-12)


def _quantiles(edges, masses, t):
    c = np.concatenate(([0.0], np.cumsum(masses)))
    c /= c[-1]
    return np.interp(t, c, edges)


def w2_matrix(hists) -> np.ndarray:
    """Wasserstein-2 distances from quantile functions on a midpoint grid."""
    t = (np.arange(W2_GRID) + 0.5) / W2_GRID
    qf = np.array([_quantiles(e, m, t) for e, m in hists])
    n = len(hists)
    out = np.zeros((n, n))
    for i in range(n):
        out[i] = np.sqrt(np.mean((qf - qf[i]) ** 2, axis=1))
    return out


def check_w2_distances(hists, dm, what="Wasserstein distance"):
    """Every entry of ``dm`` against the grid-integrated distance."""
    want = w2_matrix(hists)
    _close(dm, want, W2_RTOL, what, atol=1e-6)


def check_distance_csv(text, want, what="distance CSV"):
    """A distance-matrix CSV (no header) against an expected matrix."""
    got = np.loadtxt(io.StringIO(text), delimiter=",", ndmin=2)
    _close(got, want, RTOL, what, atol=1e-12)


# ---------------------------------------------------------------------------
# depths


@lru_cache(maxsize=4)
def _triples(n: int) -> np.ndarray:
    return np.array(list(itertools.combinations(range(n), 3)), dtype=np.int64).reshape(-1, 3)


def mod3_of_query(q, d, block=200_000) -> float:
    """MOD3 depth of a query with distances ``q`` to the sample ``d``."""
    d = np.asarray(d, dtype=float)
    d2 = d * d
    a = np.asarray(q, dtype=float) ** 2
    idx_all = _triples(d.shape[0])
    total = 0.0
    for s in range(0, len(idx_all), block):
        idx = idx_all[s:s + block]
        aa = a[idx]
        b3 = 0.5 * (aa[:, :, None] + aa[:, None, :] - d2[idx[:, :, None], idx[:, None, :]])
        rad = np.linalg.det(b3) + 4.0 * aa.prod(axis=1)
        total += float(np.sqrt(np.maximum(rad, 0.0)).sum())
    return 1.0 / (1.0 + total / len(idx_all))


def mld_of_query(q, d) -> float:
    """Fraction of pairs farther apart than both are from the query."""
    d = np.asarray(d, dtype=float)
    q = np.asarray(q, dtype=float)
    n = d.shape[0]
    wins = d > np.maximum(q[:, None], q[None, :])
    return int(np.count_nonzero(np.triu(wins, 1))) / (n * (n - 1) // 2)


def msd_of_query(q, d) -> float:
    """Spatial-style depth: 1 - mean over pairs of the clipped cosine / 2.

    Pairs with a zero query distance contribute zero.
    """
    d = np.asarray(d, dtype=float)
    q = np.asarray(q, dtype=float)
    n = d.shape[0]
    pairs = np.triu(np.ones((n, n), dtype=bool), 1) & (q[:, None] != 0.0) & (q[None, :] != 0.0)
    num = q[:, None] ** 2 + q[None, :] ** 2 - d ** 2
    cos = num[pairs] / np.outer(q, q)[pairs]
    return 1.0 - 0.5 * float(np.clip(cos, -2.0, 2.0).sum()) / (n * (n - 1) // 2)


DEPTH_OF_QUERY = {"MOD3": mod3_of_query, "MLD": mld_of_query, "MSD": msd_of_query}
# MLD counts pairs: it agrees exactly; the others to RTOL
EXACT = {"MLD"}


def check_depths(method, queries, d, got, what="depth"):
    """Program depths of ``queries`` (distance vectors) against the recomputation."""
    d = np.asarray(d, dtype=float)
    fn = DEPTH_OF_QUERY[method]
    want = [fn(q, d) for q in queries]
    if method not in EXACT:
        _close(got, want, RTOL, f"{what} {method}")
        return
    if len(got) != len(want):
        raise CheckFailed(f"{what} {method}: {len(got)} values, expected {len(want)}")
    for t, (g, w) in enumerate(zip(got, want)):
        if float(g) != w:
            raise CheckFailed(f"{what} {method}: entry {t} is {float(g)!r}, expected {w!r}")


def check_depth_values(method, d, rows, got, what="depth"):
    """Program depths of the sample objects ``rows`` against the recomputation."""
    d = np.asarray(d, dtype=float)
    check_depths(method, [d[r] for r in rows], d, got, what)


def check_depth_csv(text, method, d, what="depth CSV"):
    """A ``method,index,value`` depth CSV covering every sample object."""
    lines = text.splitlines()
    n = len(d)
    if not lines or lines[0] != "method,index,value" or len(lines) != n + 1:
        raise CheckFailed(f"{what}: not a header and {n} rows")
    rows = [line.split(",") for line in lines[1:]]
    if [r[:2] for r in rows] != [[method, str(i)] for i in range(n)]:
        raise CheckFailed(f"{what}: wrong method or index column")
    check_depth_values(method, d, list(range(n)), [float(r[2]) for r in rows], what)


def check_query_depth(method, q, d, got, what="query depth"):
    """Program depth of one query against the recomputation from its distances."""
    check_depths(method, [q], d, [got], what)


def check_argmax(values, index, depth, what="deepest index"):
    """``index`` is the lowest index of the maximum of ``values``."""
    values = np.asarray(values, dtype=float)
    first = int(np.flatnonzero(values == values.max())[0])
    if index != first:
        raise CheckFailed(f"{what}: index {index}, but the first maximum is at {first}")
    if float(depth) != float(values[first]):
        raise CheckFailed(f"{what}: depth {depth!r} != value {values[first]!r} at the argmax")


def check_in_sample(method, d, index, depth, what="in-sample deepest"):
    """Deepest in-sample result of a depth with a recomputation over all rows.

    The reported depth must equal the recomputed depth of ``index``, which
    must be a maximum of the recomputed depths (within the comparison
    slack, so a near-tie cannot flip the check).
    """
    d = np.asarray(d, dtype=float)
    fn = DEPTH_OF_QUERY[method]
    want = np.array([fn(d[r], d) for r in range(d.shape[0])])
    if method in EXACT:
        check_argmax(want, index, depth, f"{what} {method}")
        return
    _close([depth], [want[index]], RTOL, f"{what} {method} depth")
    if want[index] < want.max() - RTOL * abs(want.max()):
        raise CheckFailed(f"{what} {method}: index {index} has depth {want[index]!r}, "
                          f"below the maximum {want.max()!r}")


# ---------------------------------------------------------------------------
# correlation-matrix chart (for the out-of-sample bound)


def check_correlation(m, what="correlation matrix"):
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise CheckFailed(f"{what}: not square, shape {m.shape}")
    if not np.all(np.isfinite(m)) or np.max(np.abs(m - m.T)) > 1e-12:
        raise CheckFailed(f"{what}: not finite and symmetric")
    if np.max(np.abs(np.diagonal(m) - 1.0)) > 1e-10:
        raise CheckFailed(f"{what}: diagonal is not 1")
    if np.min(np.linalg.eigvalsh(m)) <= 0.0:
        raise CheckFailed(f"{what}: not positive definite")


def reconstructed_starts(mats, starts, tsh):
    """Start objects as the out-of-sample search sees them.

    Each start is Cholesky-encoded, projected onto the principal subspace
    retained at threshold ``tsh`` (smallest k reaching ``tsh`` of the
    variance, at least 2, at most min(n, q)) and decoded back to a
    correlation matrix. The projection does not depend on component signs.
    """
    p = mats[0].shape[0]
    rows, cols = np.tril_indices(p)
    data = np.array([np.linalg.cholesky(m)[rows, cols] for m in mats])
    n, q = data.shape
    mean = data.mean(axis=0)
    w, vecs = np.linalg.eigh(np.cov(data, rowvar=False))
    w, vecs = np.maximum(w[::-1], 0.0), vecs[:, ::-1]
    ratios = np.cumsum(w) / w.sum()
    k = int(np.flatnonzero(ratios >= tsh - 1e-12)[0]) + 1
    r = min(max(2, k), min(n, q))
    proj = vecs[:, :r] @ vecs[:, :r].T
    out = []
    for s in starts:
        v = mean + proj @ (data[s] - mean)
        low = np.zeros((p, p))
        low[rows, cols] = v
        cov = low @ low.T
        sd = np.sqrt(np.diagonal(cov))
        corr = cov / np.outer(sd, sd)
        corr = 0.5 * (corr + corr.T)
        np.fill_diagonal(corr, 1.0)
        out.append(corr)
    return out


def check_out_of_sample(method, d, obj, q_obj, depth, start_qs, what="out-of-sample deepest"):
    """An out-of-sample result is valid and at least as deep as its starts.

    ``q_obj`` and ``start_qs`` are the program's query distances of the
    result and of the reconstructed starts (that layer is checked apart,
    against :func:`spd_distance`); the depths are recomputed here from them.
    """
    check_correlation(obj, f"{what} object")
    check_query_depth(method, q_obj, d, depth, f"{what} depth")
    fn = DEPTH_OF_QUERY[method]
    best = max((fn(qs, d) for qs in start_qs), default=0.0)
    # the starts here are rebuilt apart from the program, so their distances
    # may differ in the last bits: MLD may flip one near-tie pair
    n = len(d)
    slack = 1.0 / (n * (n - 1) // 2) if method in EXACT else RTOL * abs(best)
    if float(depth) < best - slack:
        raise CheckFailed(f"{what} {method}: depth {depth!r} below the best "
                          f"reconstructed start {best!r}")


# ---------------------------------------------------------------------------
# permutation test


def check_p_value(p_value, t_observed, t_permuted, corrected=False, what="p-value"):
    """p = hits / B (or (1 + hits) / (1 + B)), hits recounted, ties included."""
    t_permuted = np.asarray(t_permuted, dtype=float)
    b = t_permuted.size
    hits = int(np.count_nonzero(t_permuted >= t_observed))
    want = (1 + hits) / (1 + b) if corrected else hits / b
    if float(p_value) != want:
        raise CheckFailed(f"{what}: {p_value!r}, expected {want!r} from {hits} hits of {b}")


def check_statistics(t_observed, t_permuted, d, what="permutation statistics"):
    """Every statistic is a distance between two distinct sample objects."""
    d = np.asarray(d, dtype=float)
    off = d[~np.eye(d.shape[0], dtype=bool)]
    values = np.concatenate(([t_observed], np.asarray(t_permuted, dtype=float)))
    if not np.all(np.isin(values, off)):
        bad = values[~np.isin(values, off)][0]
        raise CheckFailed(f"{what}: {bad!r} is not a distance between two sample objects")


def check_observed_statistic(method, d, labels, t_observed, what="observed statistic"):
    """The statistic is the distance between the two groups' deepest objects.

    Deepest objects are recomputed per group on the program's distances;
    every object within the comparison slack of its group's maximum is a
    candidate, so a near-tie cannot flip the check.
    """
    d = np.asarray(d, dtype=float)
    labels = np.asarray(labels)
    fn = DEPTH_OF_QUERY[method]
    cands = []
    for name in sorted(set(labels.tolist())):
        idx = np.flatnonzero(labels == name)
        sub = d[np.ix_(idx, idx)]
        vals = np.array([fn(sub[r], sub) for r in range(len(idx))])
        slack = 0.0 if method in EXACT else RTOL * abs(vals.max())
        cands.append(idx[vals >= vals.max() - slack])
    want = {float(d[i, j]) for i in cands[0] for j in cands[1]}
    if float(t_observed) not in want:
        raise CheckFailed(f"{what} {method}: {t_observed!r} is none of {sorted(want)}")
