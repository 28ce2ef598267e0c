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
distances to ``rows`` depths. It reads a :class:`SampleState` built once
per sample, holding only what that method needs of the sample. The work is
cut into tiles: a block of query rows crossed with a range of the sample
tuples. A tile builds the method's per-tuple terms (one row per query) and
reduces each row to a partial: a sum (MOD3, MOD2, MSD), a count (MLD) or a
minimum (MHD). The tuple ranges are the leaves of numpy's own
pairwise-summation tree over a row, so the partials, joined back along
that tree, are bitwise the reduction of the whole row. Scoring one query
is a 1-row block; scoring every sample object (``depth_values``) runs the
sample's own distance rows through the same tiles, so both give bitwise
identical values. A call runs on the calling thread, one row block after
another, unless its rows hold more than half of ``_BLOCK_TARGET`` terms
each, so that every block is one row: then two blocks or more run on one
thread per core available to the process. Every block writes its tiles'
temporaries and terms into buffers that are kept from call to call (one set
per block running at once), so it allocates no array of its size: freshly
allocated ones had their memory faulted in again on many calls.

Subsampled MOD3 (``mod3_subsample_state``) is a MOD3 state over ``m``
triples drawn once, in place of all C(n, 3); the same evaluator scores one
query or the whole sample against it.

On samples that embed in a Euclidean space (``euclidean_certificate``),
``mod3_lower_bounds`` bounds every sample object's MOD3 mean kernel from
below in O(n^2) in all. The in-sample MOD3 argmax (``_mod3_argmax``)
starts from these values on every distance table scored over all of its
triples, certified or not, and drops objects without scoring them in full.

The deepest member of every group of one pooled sample, such as the groups
of every label permutation of a two-group test, comes from one entry,
``_group_picks``, for all five methods. For MOD2, MLD and MSD the pooled
terms are built once (``_group_depths``), and each member's depth within
its group reduces its pooled term row gathered at the group's pairs. MOD3
and MHD stack the groups' distance sub-matrices and score a chunk of them
at once: MOD3 runs one elimination over the stack, each row scored against
its own group, and MHD counts every group's anchor-pair probabilities and
qualifying pairs from one boolean indicator.

Full-sample evaluation (``depth_values``) scores every sample object
against the entire sample, including itself: tuples containing the query's
own index are kept, their kernels are well-defined (and typically zero).
One query is scored by ``depth_of_query(q, dm, method)``.
"""

from __future__ import annotations

import contextvars
import math
import mmap
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache, partial

import numpy as np

from .core import as_distance_array
from .errors import InsufficientSampleError, InvalidArgumentError, MetricViolationError
from .seeding import SUBSAMPLE_TAG, child_rng

# Evaluation cuts its work into tiles whose bulk temporaries hold at most
# this many elements (256 KB of float64), which keeps them cache-sized: a
# row block holds as many query rows as fit, and a longer row is split along
# its tuples. A temporary exceeds the target only when the target is below
# 128, as one leaf of up to 128 elements (numpy's unrolled summation loop).
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
    (i, j), (j, k), (i, k) in an (n, n) table; for MHD the ordered anchor
    pairs (a1, a2), a1 != a2. ``table`` holds the sample-side numbers:
    squared distances (MOD3), squared pair distances (MOD2, MSD), pair
    distances (MLD), or the anchor-pair probabilities (MHD).

    A MOD3 state over every triple may hold a (k, n, n) stack of samples in
    ``values`` and ``table``; ``which`` then gives the sample of each query
    row, so that one block scores rows of many samples, each against its
    own (see :func:`_mod3_argmax`).
    """

    method: DepthMethod
    values: np.ndarray
    index: tuple
    table: np.ndarray
    which: np.ndarray | None = None


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
        index = _anchor_pairs(v.shape[0])
        return SampleState(method, v, index, mhd_pair_probabilities(v)[index])
    index = _pair_indices(v.shape[0])
    d_ij = v[index]
    return SampleState(method, v, index, d_ij if method is DepthMethod.MLD else d_ij ** 2)


def _mod3_state(v: np.ndarray, triples: tuple) -> SampleState:
    i, j, k = triples
    n = v.shape[-1]
    return SampleState(DepthMethod.MOD3, v, (i, j, k, i * n + j, j * n + k, i * n + k), v * v)


def _check_query(q, n: int, rows: int | None = None) -> np.ndarray:
    """One query's distances to a sample of ``n`` objects, or with ``rows``
    given a (rows, n) block of queries' distances, as floats: finite and
    nonnegative."""
    q = np.asarray(q, dtype=float)
    shape = (n,) if rows is None else (rows, n)
    if q.shape != shape:
        raise InvalidArgumentError(f"query distances must have shape {shape}, got shape {q.shape}")
    if not np.all(np.isfinite(q)) or (q.size and np.min(q) < 0):
        raise InvalidArgumentError("query distances must be finite and nonnegative")
    return q


def _require(n: int, minimum: int, what: str) -> None:
    if n < minimum:
        raise InsufficientSampleError(f"{what} needs a sample of at least {minimum}, got {n}")


def _contiguous(index) -> tuple:
    # contiguous, writeable copies: ``take`` copies a strided or read-only
    # index array on every call (up to 256 KB a tile, faulted in afresh in a
    # new worker thread). The cached arrays are shared: nothing writes them
    return tuple(np.ascontiguousarray(t) for t in index)


@lru_cache(maxsize=8)
def _triple_indices(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All index triples i<j<k of range(n), in lexicographic order."""
    r = np.arange(n)
    return _contiguous(np.nonzero((r[:, None, None] < r[None, :, None]) & (r[None, :, None] < r)))


@lru_cache(maxsize=16)
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All index pairs i<j of range(n), in lexicographic order."""
    return _contiguous(np.triu_indices(n, 1))


@lru_cache(maxsize=8)
def _anchor_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All ordered index pairs (a1, a2), a1 != a2, of range(n), in
    lexicographic order."""
    return _contiguous(np.nonzero(~np.eye(n, dtype=bool)))


# ---------------------------------------------------------------------------
# evaluators: per-tuple terms of a (rows, n) block of query distances over a
# range ``part`` of the sample tuples, then a reduction of each row of those
# terms to a partial of that query's depth
#
# Gathers use ``take``, not fancy indexing, so every table is C-ordered and
# its rows are reduced one by one, as a 1-row table is.


# Radicand clamp for the MOD3 kernel, relative to max(prod, min(1, m^3)),
# with prod the product of the three squared query distances and m the
# largest squared distance of the query's row. Exact arithmetic keeps the
# radicand nonnegative; floating point can undershoot by round-off, which is
# clamped. Larger undershoots mean the distances cannot come from a metric.
# Below m = 1 the tolerance shrinks as m^3, as the radicands do, so a
# violation is caught however small the distances; from m = 1 up it is
# max(prod, 1), as it always was.
KERNEL_RADICAND_TOL = 1e-9


def _mod3_pairs(s: SampleState, q: np.ndarray) -> np.ndarray:
    """B-matrix off-diagonal entries of every query against every pair of
    its sample, as a (rows, n * n) table."""
    a = q * q
    table = s.table if s.which is None else s.table[s.which]
    return (0.5 * (a[:, :, None] + a[:, None, :] - table)).reshape(a.shape[0], -1)


def _mod3_terms(s: SampleState, q: np.ndarray, part=slice(None), c=None,
                scratch=None) -> np.ndarray:
    """Kernel of every (query, triple) in ``part`` of the triples; ``c`` is
    the block's :func:`_mod3_pairs`, when already built. The kernels are
    written into ``scratch`` (see :func:`_tile_buffers`)."""
    a = q * q
    if c is None:
        c = _mod3_pairs(s, q)
    i, j, k, ij, jk, ik = (t[part] for t in s.index)
    a_i, a_j, a_k, c_ij, c_jk, c_ik, prod, rad, tmp, low = _tile_buffers(
        scratch, a.shape[0], i.size, 9)
    for out, table, index in ((c_ij, c, ij), (c_jk, c, jk), (c_ik, c, ik),
                              (a_i, a, i), (a_j, a, j), (a_k, a, k)):
        # in range by construction; "raise" would buffer ``out``
        table.take(index, axis=1, out=out, mode="clip")
    # kernel radicand det(B3) + 4*prod, evaluated as
    #   5*prod + ((2*c_ij)*c_jk)*c_ik - (a_i*c_jk)*c_jk - (a_j*c_ik)*c_ik
    #   - (a_k*c_ij)*c_ij, left to right
    np.multiply(a_i, a_j, out=prod)
    prod *= a_k
    np.multiply(prod, 5.0, out=rad)
    np.multiply(c_ij, 2.0, out=tmp)
    tmp *= c_jk
    tmp *= c_ik
    rad += tmp
    for a_x, c_x in ((a_i, c_jk), (a_j, c_ik), (a_k, c_ij)):
        np.multiply(a_x, c_x, out=tmp)
        tmp *= c_x
        rad -= tmp
    # the tolerance -KERNEL_RADICAND_TOL * max(prod, min(1, m^3)) lies at or
    # below -KERNEL_RADICAND_TOL * min(1, m^3): it is built, in ``prod``, only
    # for a block with a radicand below the latter
    floor = np.minimum(1.0, a.max(axis=1, keepdims=True) ** 3)
    if np.less(rad, -KERNEL_RADICAND_TOL * floor, out=low).any():
        np.maximum(prod, floor, out=prod)
        prod *= -KERNEL_RADICAND_TOL
        if np.less(rad, prod, out=low).any():
            raise MetricViolationError("kernel radicand below round-off tolerance; not a metric")
    np.maximum(rad, 0.0, out=rad)
    return np.sqrt(rad, out=rad)


# A MOD3 kernel sqrt(det B3 + 4 a_i a_j a_k) is at least 2 d_i d_j d_k
# wherever det B3 >= 0. det B3 is the Gram determinant of three sample
# points seen from the query, so it is nonnegative when the query and the
# sample embed in a Euclidean space together; for a query drawn from the
# sample, that is when the sample embeds.

# relative tolerance of the embedding certificate: the smallest Gram
# eigenvalue may fall this far below zero, relative to the largest
EMBEDDING_TOL = 1e-9


def _is_distance_table(v: np.ndarray) -> np.ndarray:
    """Whether the array ``v``, or each (n, n) table of a stack of them, is
    square, nonnegative, finite and symmetric, with a zero diagonal."""
    if v.shape[-2] != v.shape[-1]:
        return np.zeros(v.shape[:-2], dtype=bool)
    last = (-2, -1)
    return (((v >= 0) & (v < np.inf)).all(axis=last)
            & (v == np.swapaxes(v, -2, -1)).all(axis=last)
            & ~np.diagonal(v, axis1=-2, axis2=-1).any(axis=-1))


def _embeds(v: np.ndarray) -> np.ndarray:
    """Whether the distance table ``v``, or each table of a stack of them,
    passes the Gram test of :func:`euclidean_certificate`; a stack takes one
    ``eigvalsh``, which decides each table as it does alone."""
    sq = v * v
    mean = sq.mean(axis=-1)
    eig = np.linalg.eigvalsh(-0.5 * (sq - mean[..., :, None] - mean[..., None, :]
                                     + mean.mean(axis=-1)[..., None, None]))
    return eig[..., 0] >= -EMBEDDING_TOL * eig[..., -1]


def euclidean_certificate(dm) -> bool:
    """Whether the distances ``dm`` embed in a Euclidean space.

    Classical MDS: a nonnegative, symmetric, zero-diagonal matrix D holds
    Euclidean distances exactly when the Gram -1/2 J D^2 J (J the
    centering matrix) is positive semidefinite. One ``eigvalsh`` checks
    that, up to ``EMBEDDING_TOL`` relative to the largest eigenvalue.
    Histogram (Wasserstein-2) and Euclidean samples pass; correlation
    (affine-invariant) and sphere (geodesic) samples, and non-metric
    matrices, generally fail.
    """
    v = as_distance_array(dm)
    return bool(_is_distance_table(v) and _embeds(v))


def mod3_lower_bounds(dm) -> np.ndarray:
    """2 e3(row) / C(n, 3) for every row of the (n, n) distances ``dm``, or
    of each table of a (k, n, n) stack of them.

    e3, the third elementary symmetric polynomial of an object's distance
    row, sums d_i d_j d_k over the triples i<j<k; so this is the mean of
    2 d_i d_j d_k, a lower bound on the object's MOD3 mean kernel when
    :func:`euclidean_certificate` holds. All n bounds come from the
    recurrence e_k += x_j * e_(k-1) over the columns j, run as cumulative
    sums in O(n^2); it adds only nonnegative terms, where the power-sum
    identity for e3 would cancel.
    """
    v = as_distance_array(dm)
    n = v.shape[-1]
    # e1 and e2 of each row's entries before column j
    e1 = np.zeros_like(v)
    np.cumsum(v[..., :-1], axis=-1, out=e1[..., 1:])
    e2 = np.zeros_like(v)
    np.cumsum(v[..., :-1] * e1[..., :-1], axis=-1, out=e2[..., 1:])
    return 2.0 * (v * e2).sum(axis=-1) / math.comb(n, 3)


# relative margin of the in-sample MOD3 elimination: an object is dropped
# only when its lower bound, or the mean of its partial kernel sum, exceeds
# the mean kernel of a deeper object by more than this
_ELIMINATION_MARGIN = 1e-9


def _mod3_argmax(s: SampleState, certified: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Index and depth of the deepest object of each table of a MOD3 state,
    the lowest index on ties: of its one (n, n) table, or of each table of a
    (k, n, n) stack (see :class:`SampleState`); the result holds k indices
    and k depths. It is the one MOD3 pick routine, and every pick and depth
    is bitwise the table's full pass (``depth_values``).

    A table is exact when the state holds every triple and the table is a
    distance table (:func:`_is_distance_table`); ``certified`` says that
    every table is one and passes :func:`euclidean_certificate`, and
    otherwise each exact table takes that test itself. Every other table
    (an asymmetric, negative or non-finite array, or a table of a
    subsampled state) keeps all of its rows.

    In each exact table the object with the smallest :func:`mod3_lower_bounds`
    value is scored first, as the reference. Every other object that cannot
    reach the reference's depth is dropped:

    * Certified: every kernel of a sample object is at least
      2 d_i d_j d_k, so its depth is at most 1/(1 + bound/(1 + margin)),
      with ``_ELIMINATION_MARGIN`` as the margin. The margin covers the
      round-off by which a computed mean kernel can fall below its bound,
      as it does where the bound is tight (det B3 = 0 on one- and
      two-dimensional data). On histogram and Euclidean samples one to
      three objects are scored instead of n.
    * Otherwise the values are no bound, but kernels are nonnegative, so
      a partial sum of an object's kernels is at most its total. Each object
      sums its kernels, large ones first (:func:`_mod3_scan`), and is
      dropped once the depth of its partial sum, with the sum lowered by
      the margin, falls below the reference's depth. At n = 140 to 200,
      26-29% of the kernels of the full pass are summed on correlation
      samples, and about 20% on sphere samples.

    Both tests compare depths, as the full pass rounds them, so that
    depths equal after rounding still tie at any distance scale (at
    distances of 1e-6 every depth rounds to 1). ``_depths`` gives a row
    the same bits alone as in a block, so every score is the full pass's
    and so are the picks and their depths.

    The tables take each step together: the exact tables' bounds are one
    cumulative sum over the stack, their references one block of rows,
    each row scored against its own table (``SampleState.which``), and the
    survivors of every exact table, with every row of the other tables,
    one more block. The scan's blocks mix the rows of the uncertified
    tables; where a block is cut changes how a partial sum rounds, by far
    less than the margin, and so no pick.
    """
    n = s.values.shape[-1]
    v = s.values.reshape(-1, n, n)
    k = v.shape[0]
    stack = replace(s, values=v, table=s.table.reshape(v.shape))

    def score(t, rows):
        # a lone table's rows read its pair table as it is, with no copy per row
        return _depths(replace(stack, which=t if k > 1 else None), v[t, rows])

    # the exact tables: all of them when certified, none of a subsampled state
    every_triple = s.index[0].size == math.comb(n, 3)
    e = np.flatnonzero(np.broadcast_to(every_triple and (certified or _is_distance_table(v)), k))
    keep = np.ones((k, n), dtype=bool)
    depth = np.full((k, n), -np.inf)
    if e.size:
        # the bounds and the certificate read exact tables only: both are
        # meant for finite distances
        bound = np.reshape(mod3_lower_bounds(v[e]), (e.size, n))
        passes = np.broadcast_to(certified or _embeds(v[e]), e.size)
        ref = np.argmin(bound, axis=1)
        ref_depth = score(e, ref)
        keep[e] = False
        keep[e[passes]] = (1.0 / (1.0 + bound[passes] / (1.0 + _ELIMINATION_MARGIN))
                           >= ref_depth[passes, None])
        t, r = np.nonzero(~passes[:, None] & (np.arange(n) != ref[:, None]))
        if t.size:
            # a block's relabelled pair tables hold up to _BLOCK_TARGET
            # elements, as a tile's temporaries do
            rows = max(1, _BLOCK_TARGET // (n * n))

            def scan(block):
                tb = t[block]
                return block.start + _mod3_scan(replace(stack, which=e[tb]), ref_depth[tb],
                                                 v[e[tb], r[block]])

            kept = np.concatenate(_run(scan, [slice(i, i + rows) for i in range(0, t.size, rows)]))
            keep[e[t[kept]], r[kept]] = True
        keep[e, ref] = False
        depth[e, ref] = ref_depth
    t, r = np.nonzero(keep)
    if t.size:
        depth[t, r] = score(t, r)
    # argmax takes the lowest index of ties
    pick = np.argmax(depth, axis=1)
    return pick, depth[np.arange(k), pick]


def _mod3_scan(s: SampleState, ref_depth: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Positions of the rows of ``q``, objects of the tables ``s.which`` of a
    stacked MOD3 state, whose partial kernel sums keep them within reach of
    their own ``ref_depth`` (see :func:`_mod3_argmax`).

    Each row's kernels are summed tile by tile along the triple list. Each
    row sees its table relabelled in decreasing order of its distances,
    so the list starts with the triples that hold its farthest object,
    then those that hold the next farthest, and so on. Relabelled kernels
    round differently from the full pass's, by far less than the margin.
    """
    n = q.shape[1]
    rows = np.arange(q.shape[0])
    order = np.argsort(-q, axis=1, kind="stable")
    # the relabelled rows' pair tables, gathered from their own
    c = _mod3_pairs(s, q).reshape(-1, n, n)
    c = c[rows[:, None, None], order[:, :, None], order[:, None, :]].reshape(rows.size, -1)
    q = np.take_along_axis(q, order, axis=1)
    total = np.zeros(rows.size)
    size = s.index[0].size
    start = 0
    with _lent() as scratch:
        while start < size and rows.size:
            # a tile holds up to _BLOCK_TARGET kernels
            stop = start + max(1, _BLOCK_TARGET // rows.size)
            total += _mod3_terms(s, q, slice(start, stop), c=c, scratch=scratch).sum(axis=1)
            start = stop
            keep = 1.0 / (1.0 + total / (1.0 + _ELIMINATION_MARGIN) / size) >= ref_depth
            if not keep.all():
                rows, q, c, total, ref_depth = (x[keep] for x in (rows, q, c, total, ref_depth))
    return rows


# Two-sided clamp for the 2x2 determinant, relative to the squared largest
# participating entry. Exact arithmetic keeps the determinant nonnegative,
# reaching zero on aligned triples; round-off scatters those zeros to
# ~1e-16 * scale, so anything at or below this threshold relative to the
# squared largest entry is treated as an exact zero (also absorbing negative
# undershoots).
DET2_TOL = 1e-12


def _mod2_terms(s: SampleState, q: np.ndarray, part=slice(None), scratch=None) -> np.ndarray:
    """Kernel of every (query, pair) in ``part`` of the pairs: sqrt(det B2),
    0 where det B2 is at most its clamp or NaN (on overflowing distances)."""
    i, j = (t[part] for t in s.index)
    a_i, a_j, c, det, top, zero = _tile_buffers(scratch, q.shape[0], i.size, 5)
    for out, index in ((a_i, i), (a_j, j)):
        q.take(index, axis=1, out=out, mode="clip")
        out *= out
    # c = 0.5 * ((a_i + a_j) - d_ij^2), det = a_i * a_j - c * c
    np.add(a_i, a_j, out=c)
    c -= s.table[part]
    c *= 0.5
    np.multiply(a_i, a_j, out=det)
    det -= np.multiply(c, c, out=top)
    # the clamp (DET2_TOL * top) * top, top the largest of a_i, a_j and |c|
    np.maximum(a_i, a_j, out=top)
    np.maximum(top, np.abs(c, out=c), out=top)
    np.multiply(top, DET2_TOL, out=c)
    c *= top
    # not (det > clamp), which holds where det is NaN, unlike det <= clamp
    np.logical_not(np.greater(det, c, out=zero), out=zero)
    np.maximum(det, 0.0, out=det)
    np.sqrt(det, out=det)
    np.copyto(det, 0.0, where=zero)
    return det


def _mld_terms(s: SampleState, q: np.ndarray, part=slice(None), scratch=None) -> np.ndarray:
    """Whether each pair in ``part`` is farther apart than both are from the
    query."""
    i, j = (t[part] for t in s.index)
    q_i, q_j, far = _tile_buffers(scratch, q.shape[0], i.size, 2)
    q.take(i, axis=1, out=q_i, mode="clip")
    q.take(j, axis=1, out=q_j, mode="clip")
    np.maximum(q_i, q_j, out=q_i)
    return np.greater(s.table[part], q_i, out=far)


def _msd_terms(s: SampleState, q: np.ndarray, part=slice(None), scratch=None) -> np.ndarray:
    """Cosine-like ratio of every (query, pair) in ``part``, 0 where either
    query distance is 0. Exact arithmetic keeps it in [-2, 2]; the clip
    catches round-off on near-coincident objects."""
    i, j = (t[part] for t in s.index)
    q_i, q_j, num, denom, active, idle = _tile_buffers(scratch, q.shape[0], i.size, 4, 2)
    q.take(i, axis=1, out=q_i, mode="clip")
    q.take(j, axis=1, out=q_j, mode="clip")
    np.not_equal(q_i, 0.0, out=active)
    active &= np.not_equal(q_j, 0.0, out=idle)
    np.logical_not(active, out=idle)
    # (q_i^2 + q_j^2 - d_ij^2) / (q_i * q_j), dividing by 1 where inactive
    np.multiply(q_i, q_i, out=num)
    num += np.multiply(q_j, q_j, out=denom)
    num -= s.table[part]
    np.multiply(q_i, q_j, out=denom)
    np.copyto(denom, 1.0, where=idle)
    num /= denom
    np.clip(num, -2.0, 2.0, out=num)
    np.copyto(num, 0.0, where=idle)
    return num


def _mhd_terms(s: SampleState, q: np.ndarray, part=slice(None), scratch=None) -> np.ndarray:
    """Probability of every anchor pair in ``part`` that qualifies, 1 for the
    others (which keeps the minimum: probabilities never exceed 1)."""
    a1, a2 = (t[part] for t in s.index)
    q_1, q_2 = _tile_buffers(scratch, q.shape[0], a1.size, 2, 0)
    q.take(a1, axis=1, out=q_1, mode="clip")
    q.take(a2, axis=1, out=q_2, mode="clip")
    # 1 where a1 is farther than a2, 0 where the pair qualifies; probabilities
    # lie in [0, 1], so the larger of that and the probability is the term
    return np.maximum(np.greater(q_1, q_2, out=q_1), s.table[part], out=q_1)


def _no_shared_inputs(s: SampleState, q: np.ndarray) -> dict:
    return {}


def _kernel_depth(total, size):
    return 1.0 / (1.0 + total / size)


_SUM = partial(np.add.reduce, axis=1)

# per method: the inputs that the tiles of one row block share, the terms of
# a tile, the reduction of a tile's terms to one partial per row, the join
# of two partials, and the depths from the partial of whole rows of ``size``
# tuples
_EVALUATE = {
    DepthMethod.MOD3: (lambda s, q: {"c": _mod3_pairs(s, q)}, _mod3_terms, _SUM, np.add,
                       _kernel_depth),
    DepthMethod.MOD2: (_no_shared_inputs, _mod2_terms, _SUM, np.add, _kernel_depth),
    DepthMethod.MLD: (_no_shared_inputs, _mld_terms, partial(np.count_nonzero, axis=1),
                      np.add, lambda count, size: count / size),
    DepthMethod.MSD: (_no_shared_inputs, _msd_terms, _SUM, np.add,
                      lambda total, size: 1.0 - 0.5 * (total / size)),
    # with no anchor pairs (n = 1) the depth is 1
    DepthMethod.MHD: (_no_shared_inputs, _mhd_terms,
                      partial(np.min, axis=1, initial=1.0), np.minimum,
                      lambda low, size: low),
}


# ---------------------------------------------------------------------------
# tiles: a block of query rows crossed with a range of the sample tuples
#
# numpy sums a contiguous row pairwise: a run of more than _PAIRWISE_BLOCK
# elements is split at _split(size) and the two halves' sums are added; a
# shorter run is one unrolled loop. The tuple ranges of the tiles are the
# nodes of that tree at which splitting stops, its leaves; their sums,
# added back along the tree, are bitwise the sum of the whole row. Counts
# and minima are exact in any order.

_PAIRWISE_BLOCK = 128

# threads that score the one-row blocks of one call, and the blocks of the
# MOD3 scan; numpy releases the GIL inside ``take`` and its elementwise loops
_WORKERS = len(os.sched_getaffinity(0))


class _Scratch:
    """Buffers for the temporaries of a row block's tiles, one tile at a
    time: room for nine float64 and two boolean arrays of ``size`` elements
    each, the most any evaluator takes (MOD3 nine floats, MSD two masks).

    They lie in an anonymous memory map of their own, outside the heap of
    the allocator, so that they do not keep the heap from shrinking: held
    on the heap, two sets raised the peak resident memory of 20 in-sample
    replicates at n=140 by 1-3 MB more than in a map of their own. The map
    is private, so a process forked from this one copies the pages it
    writes instead of sharing them with its parent and its siblings.
    """

    def __init__(self, size: int):
        self.size = size
        # a map cannot be empty
        buffer = mmap.mmap(-1, max(1, 9 * 8 * size + 2 * size),
                           flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
        self.floats = np.frombuffer(buffer, count=9 * size)
        self.masks = np.frombuffer(buffer, dtype=bool, count=2 * size, offset=9 * 8 * size)

    def arrays(self, rows: int, width: int, floats: int, masks: int) -> tuple:
        """``floats`` float64 and then ``masks`` boolean (rows, width)
        arrays, side by side at the front of the buffers."""
        k = rows * width
        return (*self.floats[:floats * k].reshape(floats, rows, width),
                *self.masks[:masks * k].reshape(masks, rows, width))


def _tile_buffers(scratch, rows: int, width: int, floats: int, masks: int = 1) -> tuple:
    """:meth:`_Scratch.arrays` of ``scratch``, which every evaluator writes
    its temporaries and terms into, or of new buffers of just that size when
    ``scratch`` is None."""
    return (scratch or _Scratch(rows * width)).arrays(rows, width, floats, masks)


# Scratch not lent out at the moment: one per block that ever ran at the
# same time as others (one per worker thread), kept from call to call and
# shared by every method. Tiles that allocated their temporaries afresh (up
# to 2.4 MB a tile) had their pages faulted in again on many calls, as if
# the allocator handed the top of its heap back to the system after each
# tile: in a fresh process a 12-row MOD3 call at n=40 took about 1,500 minor
# page faults, and passes at n=140 about 16,000 (MOD2), 9,500 (MSD) and
# 5,000 (MLD). ``list.pop`` and ``list.append`` are atomic, so lending needs
# no lock.
_SCRATCH: list = []


@contextmanager
def _lent():
    """A :class:`_Scratch` from the pool that holds a tile of up to
    ``_BLOCK_TARGET`` elements (the target read now), back in the pool when
    the block ends. Every tile writes what it reads, so a tile that raised
    leaves nothing behind that a later tile could read."""
    size = max(_BLOCK_TARGET, _PAIRWISE_BLOCK)
    try:
        scratch = _SCRATCH.pop()
    except IndexError:
        scratch = _Scratch(size)
    if scratch.size != size:
        scratch = _Scratch(size)
    try:
        yield scratch
    finally:
        _SCRATCH.append(scratch)


def _split(size: int) -> int:
    half = size // 2
    return half - half % 8


def _is_leaf(size: int) -> bool:
    return size <= max(_BLOCK_TARGET, _PAIRWISE_BLOCK)


def _leaves(start: int, size: int) -> list:
    """The (start, stop) tuple ranges of the leaves, in order."""
    if _is_leaf(size):
        return [(start, start + size)]
    h = _split(size)
    return _leaves(start, h) + _leaves(start + h, size - h)


def _fold(size: int, partials, join):
    """The partial of a whole node of ``size`` tuples, joined along the tree
    from the iterator ``partials`` of its leaves' partials, in order."""
    if _is_leaf(size):
        return next(partials)
    h = _split(size)
    first = _fold(h, partials, join)
    return join(first, _fold(size - h, partials, join))


def _run(task, items) -> list:
    """``[task(x) for x in items]``, on up to ``_WORKERS`` threads of a pool
    made for the call when there are at least two items; otherwise on the
    calling thread. A failure is raised in the caller, once the items not
    yet started are cancelled and the running ones have ended."""
    items = list(items)
    workers = min(_WORKERS, len(items))
    if workers < 2:
        return [task(x) for x in items]
    # imported here: ``import metricdepth`` would otherwise pay for it (and
    # for logging, which it imports) in every command
    from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait

    with ThreadPoolExecutor(workers) as pool:
        # numpy keeps ``np.errstate`` in a context variable: each item runs
        # in a copy of the caller's context, so the caller's settings apply
        futures = [pool.submit(contextvars.copy_context().run, task, x) for x in items]
        # the caller wakes once, not once an item: waking it per item (as
        # ``as_completed`` does) made in-sample replicates at n=140 about 10%
        # slower
        try:
            wait(futures, return_when=FIRST_EXCEPTION)
        finally:
            pool.shutdown(cancel_futures=True)
    # items start in order, so every cancelled item comes after a failed one
    return [future.result() for future in futures]


def _depths(s: SampleState, q: np.ndarray) -> np.ndarray:
    """Depths of the (rows, n) query distances ``q``, one row block at a
    time: a block lends one scratch, scores its leaves in order and joins
    their partials. Blocks of one row (a row of more than half of
    ``_BLOCK_TARGET`` terms) run on the workers (:func:`_run`); blocks of
    several rows run on the calling thread."""
    shared, terms, reduce, join, finish = _EVALUATE[s.method]
    size = s.index[0].size
    # a row block holds up to _BLOCK_TARGET terms, and at least one row
    rows = max(1, _BLOCK_TARGET // max(size, 1))
    leaves = _leaves(0, size)

    def block(start):
        qb = q[start:start + rows]
        # the rows of a stacked state name their samples
        inputs = shared(s if s.which is None else replace(s, which=s.which[start:start + rows]),
                        qb)
        with _lent() as scratch:
            partials = (reduce(terms(s, qb, slice(*leaf), scratch=scratch, **inputs))
                        for leaf in leaves)
            return finish(_fold(size, partials, join), size)

    starts = range(0, q.shape[0], rows)
    return np.concatenate(_run(block, starts) if rows == 1 else [block(b) for b in starts])


# the methods whose term of a (query, pair) depends on the three distances
# among them alone, so that a group of the sample has the pooled sample's
# terms at its own pairs
_POOLED = frozenset({DepthMethod.MOD2, DepthMethod.MLD, DepthMethod.MSD})


def _group_picks(v: np.ndarray, groups: list, method: DepthMethod) -> list:
    """The deepest member of each group of a pooled sample, the lowest on
    ties.

    ``v`` holds the pooled (n, n) distances. Each array of ``groups`` holds
    one group per row, as increasing pooled indices; groups in one array
    have the same size. The result holds, for each array, the position in
    its row of every row's pick: the pick of ``deepest_in_sample`` on that
    group's distance sub-matrix.

    MOD2, MLD and MSD take the argmax of :func:`_group_depths`. MOD3 and
    MHD gather the sub-matrices of a chunk of rows into one (rows, m, m)
    stack, and find every table's deepest object at once
    (:func:`_mod3_argmax`, :func:`_mhd_argmax`). A MOD3 chunk holds up to
    ``_BLOCK_TARGET`` distances, and its reference rows up to
    ``_BLOCK_TARGET`` kernels: one tile (chunks of twice to four times that
    took as long on two threads, and raised the peak memory of a histogram
    test by 3.5 MB). An MHD chunk's (rows, m, m, m) indicator, a byte an
    element, holds up to eight times ``_BLOCK_TARGET`` elements (the byte
    budget of :func:`mhd_pair_probabilities`).

    MOD3 checks :func:`euclidean_certificate` once, on the pooled sample. A
    sum-zero vector restricted to a subset is still sum-zero: when the
    pooled squared distances are conditionally negative definite, so is
    every principal submatrix. So one check of the pooled sample covers the
    groups of every draw; only when it fails does each group take its own
    (:func:`_mod3_argmax`).
    """
    method = DepthMethod(method)
    if method in _POOLED:
        return [np.argmax(depth, axis=1)
                for depth in _group_depths(sample_state(v, method), groups)]
    certified = method is DepthMethod.MOD3 and euclidean_certificate(v)
    out = []
    for g in groups:
        m = g.shape[1]
        chunk = max(1, (8 * _BLOCK_TARGET // m ** 3 if method is DepthMethod.MHD
                        else _BLOCK_TARGET // max(m * m, math.comb(m, 3))))
        picks = []
        for start in range(0, len(g), chunk):
            gc = g[start:start + chunk]
            sub = v[gc[:, :, None], gc[:, None, :]]
            picks.append(_mhd_argmax(sub) if method is DepthMethod.MHD
                         else _mod3_argmax(_mod3_state(sub, _triple_indices(m)), certified)[0])
        out.append(np.concatenate(picks))
    return out


def _mhd_argmax(v: np.ndarray) -> np.ndarray:
    """The index of the deepest object of each (n, n) table of the stack
    ``v`` under MHD, the lowest on ties.

    One indicator, x at least as close to a1 as to a2, gives both sides of
    every depth. Summed over the objects x, it counts n P(a1, a2) (see
    :func:`mhd_pair_probabilities`); and at x, it marks the anchor pairs
    that qualify for x (a1 not farther from x than a2: the same test for
    distances without NaN). A depth is the least count of its qualifying
    pairs over n, or 1. Every P is its count over the same n, so the counts
    order the depths as the depths themselves do, ties included; and the
    pairs a1 = a2 count n, as a depth of 1 does, so they change no minimum.

    The counts are held in the smallest unsigned type that holds n. The
    indicator is built for a block of objects x at a time, up to eight
    times ``_BLOCK_TARGET`` elements; with more than one block, it is built
    once for the counts and once more for the minima.
    """
    k, n = v.shape[:2]
    dtype = np.min_scalar_type(n)
    rows = max(1, 8 * _BLOCK_TARGET // (k * n * n))
    blocks = [slice(s, s + rows) for s in range(0, n, rows)]

    def indicator(b):
        # [table, x, a1, a2]
        return (v[:, b, :, None] <= v[:, b, None, :]).astype(dtype)

    held = [indicator(blocks[0])] if len(blocks) == 1 else []
    count = np.zeros((k, n, n), dtype)
    for ind in held or map(indicator, blocks):
        count += ind.sum(axis=1, dtype=dtype)
    low = []
    for ind in held or map(indicator, blocks):
        # 0 where the pair qualifies for x, the type's largest value where
        # it does not; then the count where it qualifies
        ind -= 1
        ind |= count[:, None]
        low.append(ind.reshape(k, ind.shape[1], -1).min(axis=2))
    return np.argmax(np.concatenate(low, axis=1), axis=1)


def _group_depths(s: SampleState, groups: list) -> list:
    """Depths of the members of groups of a sample, each within its group.

    ``s`` is the state of the pooled sample, for a method in ``_POOLED``.
    Each array of ``groups`` holds one group per row, as increasing pooled
    indices; groups in one array have the same size. The result holds, for
    each array, the depth of every member w.r.t. its row's group, bitwise
    :func:`depth_values` of that group's distance sub-matrix.

    The pooled terms are built once for every sample object against every
    pooled pair, and a member's depth gathers its pooled term row at the
    pairs of its group. A group's pairs i<j, in its own lexicographic order,
    are the pooled pairs restricted to the group, in the pooled order; so a
    gathered row holds the group's own terms in the group's own order, and
    is reduced along the same tree. Pooled terms are held one row block at
    a time, of at most ``_BLOCK_TARGET`` terms and at least one row. Each
    block scores every member that falls in it, taking draws and then
    members so that at most ``_BLOCK_TARGET`` pair positions, and at least
    one row of them, are gathered at once.
    """
    _, _, reduce, join, finish = _EVALUATE[s.method]
    v = s.values
    n = v.shape[0]
    size = s.index[0].size
    rows = max(1, _BLOCK_TARGET // size)
    # pooled position of the pair (i, j), i < j: first[i] + j
    first = np.arange(n) * (2 * n - np.arange(n) - 3) // 2 - 1
    out = [np.empty(g.shape) for g in groups]
    for start in range(0, n, rows):
        table = _pooled_terms(s, v[start:start + rows])
        for g, depth in zip(groups, out):
            i, j = _pair_indices(g.shape[1])
            width = i.size
            leaves = _leaves(0, width)
            chunk = max(1, _BLOCK_TARGET // width)
            inside = (g >= start) & (g < start + rows)
            draws = np.flatnonzero(inside.any(axis=1))
            for c in range(0, draws.size, chunk):
                dc = draws[c:c + chunk]
                gc = g[dc]
                # pooled positions of the pairs of each draw's group
                pairs = first.take(gc).take(i, axis=1)
                pairs += gc.take(j, axis=1)
                local, member = np.nonzero(inside[dc])
                for m in range(0, local.size, chunk):
                    d, a = local[m:m + chunk], member[m:m + chunk]
                    # flat positions in ``table``: the member's row, its group's pairs
                    at = pairs.take(d, axis=0)
                    at += ((gc[d, a] - start) * size)[:, None]
                    partials = (reduce(table.take(at[:, slice(*leaf)])) for leaf in leaves)
                    depth[dc[d], a] = finish(_fold(width, partials, join), width)
    return out


def _pooled_terms(s: SampleState, q: np.ndarray) -> np.ndarray:
    """The terms of the (rows, n) query distances ``q`` against every tuple
    of ``s``, built leaf by leaf and copied out of the scratch."""
    terms = _EVALUATE[s.method][1]
    with _lent() as scratch:
        parts = [terms(s, q, slice(*leaf), scratch=scratch).copy()
                 for leaf in _leaves(0, s.index[0].size)]
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


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
    # one call draws r_t uniform on [0, t] for every t, the same numbers as
    # one call per t
    for t, r in enumerate(rng.integers(0, np.arange(total - m, total) + 1).tolist(), total - m):
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

    Deterministic given ``seed``; coincides with the full MOD3 depth,
    ``depth_of_query(q, dm, DepthMethod.MOD3)``, exactly when ``m`` equals
    the total number of triples. To score many queries against one draw,
    pass :func:`mod3_subsample_state` to :func:`depth_of_query` or
    :func:`depth_values`.
    """
    return depth_of_query(q, mod3_subsample_state(dm, m, seed), DepthMethod.MOD3)
