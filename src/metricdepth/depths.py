"""Sample depth functions on distance data.

Five depths are provided, all consuming only a vector of query-to-sample
distances ``q`` and the sample's pairwise :class:`DistanceMatrix`:

* ``MOD3`` -- order-3 kernel depth 1/(1 + mean over index triples of
  sqrt(det B3 + 4 * prod of squared query distances)); the headline method.
* ``MOD2`` -- order-2 analogue 1/(1 + mean over pairs of sqrt(det B2)).
  Not a genuine centrality measure (it is identically 1 on the line) but
  included for comparisons.
* ``MLD``  -- fraction of sample pairs whose mutual distance strictly
  exceeds both distances to the query.
* ``MSD``  -- spatial-style depth in [0, 2] built from normalized
  squared-distance cosines around the query.
* ``MHD``  -- half-space-style depth: minimum over ordered anchor pairs
  (a1 at most as far from the query as a2) of the empirical probability
  that a sample point is at least as close to a1 as to a2. The anchors are
  the sample itself.

Each method has one evaluator, which maps a (rows, n) block of query
distances to ``rows`` depths: it builds a table of per-tuple terms (one
row per query) and reduces each row to a depth. It reads a
:class:`SampleState` built once per sample, holding only what that method
needs of the sample. Scoring one query is a 1-row block; scoring every
sample object (``depth_values``) runs the sample's own distance rows
through the same evaluator, in blocks sized by ``_BLOCK_TARGET``, so both
give bitwise identical values.

Subsampled MOD3 (``mod3_subsample_state``) is a MOD3 state over ``m``
triples drawn once, in place of all C(n, 3); the same evaluator scores one
query or the whole sample against it.

Full-sample evaluation (``depth_all_sample``) scores every sample object
against the entire sample, including itself: tuples containing the query's
own index are kept, their kernels are well-defined (and typically zero).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations

import numpy as np

from .core import DET2_TOL, KERNEL_RADICAND_TOL, as_distance_array
from .errors import InsufficientSampleError, InvalidArgumentError, MetricViolationError
from .seeding import SUBSAMPLE_TAG, child_rng

# Evaluation sizes its query blocks so that each bulk temporary holds about
# this many elements (256 KB of float64), which keeps the temporaries of a
# block cache-sized. A block holds at least one query, so a temporary never
# holds less than one row of per-tuple terms.
_BLOCK_TARGET = 32768


class DepthMethod(str, Enum):
    """Selector for the five sample depth functions."""

    MOD3 = "MOD3"
    MOD2 = "MOD2"
    MLD = "MLD"
    MSD = "MSD"
    MHD = "MHD"

    @property
    def min_sample(self) -> int:
        return {"MOD3": 3, "MOD2": 2, "MLD": 2, "MSD": 2, "MHD": 1}[self.value]

    @property
    def value_range(self) -> tuple[float, float]:
        return (0.0, 2.0) if self is DepthMethod.MSD else (0.0, 1.0)

    @classmethod
    def parse(cls, name: str) -> "DepthMethod":
        try:
            return cls(str(name).upper())
        except ValueError:
            raise InvalidArgumentError(
                f"unknown depth method {name!r}; choose from {[m.value for m in cls]}"
            ) from None


@dataclass(frozen=True)
class DepthReport:
    """Per-object depth values for one method, with timing."""

    method: DepthMethod
    values: np.ndarray
    elapsed_seconds: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        lo, hi = self.method.value_range
        if v.size and (np.min(v) < lo - 1e-12 or np.max(v) > hi + 1e-12):
            raise InvalidArgumentError(
                f"{self.method.value} values outside [{lo}, {hi}]"
            )
        v = np.array(v)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def to_dict(self, with_timing: bool = True) -> dict:
        return {
            "method": self.method.value,
            "values": [float(x) for x in self.values],
            "elapsed_seconds": float(self.elapsed_seconds) if with_timing else None,
        }


@dataclass(frozen=True)
class SampleState:
    """What one method's evaluator reads of a sample, built once per sample.

    ``values`` is the (n, n) distance array, so a state stands in for the
    distance matrix wherever one is accepted. ``index`` holds the sample
    tuples the method averages over: pairs i<j for MOD2, MLD and MSD; for
    MOD3 the triples i<j<k (all of them, or the ones drawn by
    :func:`mod3_subsample_state`) followed by the flat positions of their pairs
    (i, j), (j, k), (i, k) in an (n, n) table; none for MHD. ``table``
    holds the sample-side numbers: squared distances (MOD3), squared pair
    distances (MOD2, MSD), pair distances (MLD), or the anchor-pair
    probabilities (MHD).
    """

    method: DepthMethod
    values: np.ndarray
    index: tuple
    table: np.ndarray


def sample_state(dm, method: DepthMethod) -> SampleState:
    """The :class:`SampleState` of ``dm`` for ``method``.

    ``dm`` is a distance matrix, an array, or a state; a state built for
    the same method is returned as it is.
    """
    method = DepthMethod(method)
    if isinstance(dm, SampleState) and dm.method is method:
        return dm
    v = as_distance_array(dm)
    _require(v.shape[0], method.min_sample, method.value)
    if method is DepthMethod.MOD3:
        return _mod3_state(v, _triple_indices(v.shape[0]))
    if method is DepthMethod.MHD:
        return SampleState(method, v, (), mhd_pair_probabilities(v))
    index = np.triu_indices(v.shape[0], 1)
    d_ij = v[index]
    return SampleState(method, v, index, d_ij if method is DepthMethod.MLD else d_ij ** 2)


def _mod3_state(v: np.ndarray, triples: tuple) -> SampleState:
    i, j, k = triples
    n = v.shape[0]
    return SampleState(DepthMethod.MOD3, v, (i, j, k, i * n + j, j * n + k, i * n + k), v * v)


def _check_query(q, n: int) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.shape != (n,):
        raise InvalidArgumentError(f"query distances must have length {n}, got shape {q.shape}")
    if not np.all(np.isfinite(q)) or (q.size and np.min(q) < 0):
        raise InvalidArgumentError("query distances must be finite and nonnegative")
    return q


def _require(n: int, minimum: int, what: str) -> None:
    if n < minimum:
        raise InsufficientSampleError(f"{what} needs a sample of at least {minimum}, got {n}")


@lru_cache(maxsize=8)
def _triple_indices(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All index triples i<j<k of range(n), in lexicographic order."""
    r = np.arange(n)
    mask = (r[:, None, None] < r[None, :, None]) & (r[None, :, None] < r)
    # contiguous copies: ``take`` would copy strided index arrays on every call
    out = tuple(np.ascontiguousarray(t) for t in np.nonzero(mask))
    for a in out:
        a.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# evaluators: a per-tuple table for a (rows, n) block of query distances,
# then a reduction of each row of the table to that query's depth
#
# Gathers use ``take``, not fancy indexing, so every table is C-ordered:
# ``mean(axis=1)`` then sums each row pairwise, exactly as it sums a 1-row
# table, and depths do not depend on the block size.


def _mod3_terms(s: SampleState, q: np.ndarray) -> np.ndarray:
    """Kernel of every (query, triple)."""
    a = q * q
    i, j, k, ij, jk, ik = s.index
    # B-matrix off-diagonal entries of every query against every sample pair
    c = (0.5 * (a[:, :, None] + a[:, None, :] - s.table)).reshape(a.shape[0], -1)
    c_ij, c_jk, c_ik = c.take(ij, axis=1), c.take(jk, axis=1), c.take(ik, axis=1)
    a_i, a_j, a_k = a.take(i, axis=1), a.take(j, axis=1), a.take(k, axis=1)
    # kernel radicand det(B3) + 4*prod
    prod = a_i * a_j * a_k
    rad = (
        5.0 * prod
        + 2.0 * c_ij * c_jk * c_ik
        - a_i * c_jk * c_jk
        - a_j * c_ik * c_ik
        - a_k * c_ij * c_ij
    )
    scale = np.maximum(1.0, prod)
    if np.any(rad < -KERNEL_RADICAND_TOL * scale):
        raise MetricViolationError("kernel radicand below round-off tolerance; not a metric")
    return np.sqrt(np.maximum(rad, 0.0))


def _sqrt_det2(a_i, a_j, c_ij):
    """sqrt of the 2x2 determinant with exact-zero snapping.

    Exact arithmetic keeps the determinant nonnegative, reaching zero on
    aligned triples; round-off scatters those zeros to ~1e-16 * scale, so
    anything below DET2_TOL relative to the squared largest entry is
    treated as an exact zero (also absorbing negative undershoots).
    """
    det = a_i * a_j - c_ij * c_ij
    m = np.maximum(np.maximum(a_i, a_j), np.abs(c_ij))
    return np.where(det > DET2_TOL * m * m, np.sqrt(np.maximum(det, 0.0)), 0.0)


def _mod2_terms(s: SampleState, q: np.ndarray) -> np.ndarray:
    """Kernel of every (query, pair)."""
    a = q * q
    i, j = s.index
    a_i, a_j = a.take(i, axis=1), a.take(j, axis=1)
    return _sqrt_det2(a_i, a_j, 0.5 * (a_i + a_j - s.table))


def _mld_terms(s: SampleState, q: np.ndarray) -> np.ndarray:
    """Whether each pair is farther apart than both are from the query."""
    i, j = s.index
    return s.table > np.maximum(q.take(i, axis=1), q.take(j, axis=1))


def _msd_terms(s: SampleState, q: np.ndarray) -> np.ndarray:
    """Clipped cosine-like ratio of every (query, pair)."""
    i, j = s.index
    qi, qj = q.take(i, axis=1), q.take(j, axis=1)
    active = (qi != 0.0) & (qj != 0.0)
    num = qi * qi + qj * qj - s.table
    denom = np.where(active, qi * qj, 1.0)
    return np.where(active, np.clip(num / denom, -2.0, 2.0), 0.0)


def _mhd_terms(s: SampleState, q: np.ndarray) -> np.ndarray:
    """Probability of every qualifying ordered anchor pair."""
    n = q.shape[1]
    qual = (q[:, :, None] <= q[:, None, :]) & ~np.eye(n, dtype=bool)
    # probabilities never exceed 1, so filling the pairs that do not qualify
    # with 1 keeps the minimum, and gives depth 1 when none qualifies (n = 1)
    return np.where(qual, s.table, 1.0).reshape(q.shape[0], -1)


def _kernel_depth(t: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + t.mean(axis=1))


_EVALUATE = {
    DepthMethod.MOD3: (_mod3_terms, _kernel_depth),
    DepthMethod.MOD2: (_mod2_terms, _kernel_depth),
    DepthMethod.MLD: (_mld_terms, lambda t: np.count_nonzero(t, axis=1) / t.shape[1]),
    DepthMethod.MSD: (_msd_terms, lambda t: 1.0 - 0.5 * t.mean(axis=1)),
    DepthMethod.MHD: (_mhd_terms, lambda t: t.min(axis=1)),
}


def _depths(s: SampleState, q: np.ndarray) -> np.ndarray:
    """Depths of the (rows, n) query distances ``q``, block by block."""
    terms, reduce = _EVALUATE[s.method]
    # elements per query row of the bulk temporaries: one per tuple
    row_size = s.index[0].size if s.index else s.table.size
    block = max(1, _BLOCK_TARGET // row_size)
    out = np.empty(q.shape[0])
    for start in range(0, q.shape[0], block):
        # rebinding ``table`` frees the previous block's table only after the
        # next one is built; held at the top of the heap, it keeps glibc
        # malloc from handing the block's memory back to the system and
        # faulting it in again (MOD3 at n=140: about 10k instead of 1.3M
        # minor page faults per pass, and 2.2 instead of 6.0 s)
        table = terms(s, q[start:start + block])
        out[start:start + block] = reduce(table)
    return out


# ---------------------------------------------------------------------------
# public entry points


def depth_values(dm, method: DepthMethod) -> np.ndarray:
    """Depth of every sample object w.r.t. the full sample (self included).

    ``dm`` may be a :class:`SampleState` in place of the distance matrix.
    """
    state = sample_state(dm, method)
    return _depths(state, state.values)


def depth_of_query(q, dm, method: DepthMethod) -> float:
    """Depth of one query object, given its distances ``q`` to the sample.

    ``dm`` may be a :class:`SampleState` in place of the distance matrix,
    so that repeated queries share the sample-side work.
    """
    state = sample_state(dm, method)
    q = _check_query(q, state.values.shape[0])
    return float(_depths(state, q[None, :])[0])


def depth_all_sample(dm, method: DepthMethod) -> DepthReport:
    """Full-sample :class:`DepthReport` with wall-time of the evaluation."""
    method = DepthMethod(method)
    start = time.perf_counter()
    values = depth_values(dm, method)
    elapsed = time.perf_counter() - start
    return DepthReport(method, values, elapsed)


def mod3_depth(q, dm) -> float:
    """Order-3 kernel depth of one query object, in [0, 1].

    Averages the kernel over all C(n, 3) unordered sample triples; exact
    and deterministic. O(n^3) per query.
    """
    return depth_of_query(q, dm, DepthMethod.MOD3)


def mod2_depth(q, dm) -> float:
    """Order-2 kernel depth of one query object, in [0, 1].

    Identically 1 for one-dimensional Euclidean data; see the module notes.
    O(n^2) per query.
    """
    return depth_of_query(q, dm, DepthMethod.MOD2)


def mld_depth(q, dm) -> float:
    """Lens-style depth: fraction of sample pairs strictly farther from each
    other than both are from the query. O(n^2) per query."""
    return depth_of_query(q, dm, DepthMethod.MLD)


def msd_depth(q, dm) -> float:
    """Spatial-style depth in [0, 2] from squared-distance cosines.

    Pairs where either query distance is exactly zero contribute zero.
    The cosine-like ratio is mathematically confined to [-2, 2]; floating
    point can poke out for near-coincident objects, so it is clipped.
    """
    return depth_of_query(q, dm, DepthMethod.MSD)


def mhd_depth(q, dm) -> float:
    """Half-space-style depth of one query object, in [0, 1].

    Minimizes, over ordered anchor pairs (a1, a2) of sample objects with
    a1 != a2 and the query at least as close to a1 as to a2, the empirical
    probability that a sample point is at least as close to a1 as to a2.
    With a single-object sample no pair qualifies and the depth is 1.
    """
    return depth_of_query(q, dm, DepthMethod.MHD)


def mhd_pair_probabilities(dm) -> np.ndarray:
    """Empirical closer-to-a1-than-a2 probabilities for all anchor pairs.

    The anchors are the sample objects of the (n, n) distances ``dm``;
    entry [a1, a2] of the result is the fraction of sample points at least
    as close to a1 as to a2 (ties counted).
    """
    v = as_distance_array(dm)
    n = v.shape[0]
    # the (block, n, n) temporaries are boolean, an eighth of a float64
    # element each: the same byte budget holds eight times the elements
    block = max(1, 8 * _BLOCK_TARGET // (n * n))
    acc = np.zeros((n, n))
    for s in range(0, n, block):
        part = v[s:s + block]
        acc += np.count_nonzero(part[:, :, None] <= part[:, None, :], axis=0)
    return acc / n


# ---------------------------------------------------------------------------
# subsampled MOD3


def _sample_triple_ranks(total: int, m: int, rng: np.random.Generator) -> list:
    """Uniform m-subset of range(total) via Floyd's algorithm, sorted."""
    chosen: set = set()
    for t in range(total - m, total):
        r = int(rng.integers(0, t + 1))
        chosen.add(t if r in chosen else r)
    return sorted(chosen)


def _unrank_triples(ranks, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The triples i<j<k of range(n) at lexicographic ``ranks``."""
    ranks = np.asarray(ranks, dtype=np.int64)
    # rank of the first triple starting at i: C(n, 3) - C(n - i, 3)
    t = n - np.arange(n - 2, dtype=np.int64)
    first = math.comb(n, 3) - t * (t - 1) * (t - 2) // 6
    i = np.searchsorted(first, ranks, side="right") - 1
    rem = ranks - first[i]
    # (j, k) is pair number ``rem`` of the pairs j'<k' of range(i + 1, n);
    # over a universe of size u, x*u - x*(x+1)/2 pairs start below offset x
    u = n - 1 - i

    def before(x):
        return x * u - x * (x + 1) // 2

    b = 2 * u - 1
    # a rounded root could be off by one either way; the integer fix-ups
    # keep the result exact (none fired for any rank checked up to n = 2**21)
    jp = ((b - np.sqrt(b * b - 8 * rem)) // 2).astype(np.int64)
    jp -= before(jp) > rem
    jp += before(jp + 1) <= rem
    j = i + 1 + jp
    return i, j, j + 1 + rem - before(jp)


def mod3_subsample_state(dm, m: int, seed: int) -> SampleState:
    """MOD3 :class:`SampleState` over ``m`` triples drawn uniformly without
    replacement.

    Deterministic given ``seed``. The triples are kept in lexicographic
    order, so with ``m`` equal to C(n, 3) the state scores exactly as the
    full MOD3 state.
    """
    v = as_distance_array(dm)
    n = v.shape[0]
    _require(n, 3, "MOD3")
    total = math.comb(n, 3)
    if not 1 <= m <= total:
        raise InvalidArgumentError(f"triple count m={m} must be in [1, C({n},3)={total}]")
    ranks = _sample_triple_ranks(total, m, child_rng(seed, SUBSAMPLE_TAG))
    return _mod3_state(v, _unrank_triples(ranks, n))


def mod3_depth_subsampled(q, dm, m: int, seed: int) -> float:
    """MOD3 estimate from ``m`` triples drawn uniformly without replacement.

    Deterministic given ``seed``; coincides with :func:`mod3_depth` exactly
    when ``m`` equals the total number of triples. To score many queries
    against one draw, pass :func:`mod3_subsample_state` to
    :func:`depth_of_query` or :func:`depth_values`.
    """
    return depth_of_query(q, mod3_subsample_state(dm, m, seed), DepthMethod.MOD3)


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
