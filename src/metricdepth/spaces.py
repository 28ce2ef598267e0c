"""Concrete metric spaces: objects, distances, and distance matrices.

Four object kinds are supported, each with exactly one metric:

==========  =========================  ==============================
kind        object                     metric (name in reports)
==========  =========================  ==============================
``corr``    correlation matrix         affine-invariant SPD (``spd``)
``sphere``  unit vector                arc length (``sphere``)
``hist``    1-D histogram              order-2 Wasserstein (``wass``)
``eucl``    point in R^p               Euclidean (``eucl``)
==========  =========================  ==============================

Each kind has one row evaluator, which maps a stack of queries and a stack
of objects to their (queries, objects) distances; query distances, distance
matrices and the two-object distance functions all run through it, with one
query. The stack of a sample's matrices or vectors, and its distance
matrix, are each built once per :class:`ObjectSet`, on first use: every
object kind copies its arrays and makes them read-only, so what a set has
built cannot go stale. Histogram distances are read off one merged grid per
matrix or query (the union of the cumulative breakpoints of all the histograms
involved): each histogram's quantile function is evaluated on it once, and
each row is then one vectorized reduction.

Histograms are interpreted as piecewise-uniform densities (mass spread
uniformly within each bin), which makes their quantile functions piecewise
linear and the order-2 Wasserstein integral exact in closed form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import DistanceMatrix
from .errors import InvalidArgumentError, NotPositiveDefiniteError

EIGENVALUE_FLOOR = 1e-12

METRIC_FOR_KIND = {"corr": "spd", "sphere": "sphere", "hist": "wass", "eucl": "eucl"}


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric positive definite matrix with unit diagonal."""

    entries: np.ndarray

    def __post_init__(self):
        e = np.array(self.entries, dtype=float)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise InvalidArgumentError(f"correlation matrix must be square, got {e.shape}")
        if not np.all(np.isfinite(e)):
            raise InvalidArgumentError("correlation matrix entries must be finite")
        if np.max(np.abs(e - e.T)) > 1e-9:
            raise InvalidArgumentError("correlation matrix must be symmetric")
        e = 0.5 * (e + e.T)
        if np.max(np.abs(np.diagonal(e) - 1.0)) > 1e-10:
            raise InvalidArgumentError("correlation matrix diagonal must be 1 within 1e-10")
        if not _positive_definite(e)[0]:
            raise NotPositiveDefiniteError("correlation matrix is not positive definite")
        object.__setattr__(self, "entries", _readonly(e))

    @property
    def p(self) -> int:
        return self.entries.shape[0]


class _Eigh(NamedTuple):
    """Eigenvalues ``w`` and eigenvectors ``v`` of each symmetric matrix of a
    stack, by ``eigh``: the factorization an SPD query is measured from."""

    w: np.ndarray
    v: np.ndarray


def _positive_definite(m: np.ndarray) -> tuple[np.ndarray, _Eigh]:
    """Whether each symmetric matrix of ``m`` has every eigenvalue above
    ``EIGENVALUE_FLOOR``, and the :class:`_Eigh` that says so.

    ``_spd_row`` factors its queries by the same ``eigh``, which gives a
    matrix the same eigenpairs alone as in a stack: a matrix accepted here
    is accepted as a query, and its factors measure it as its entries do.
    """
    f = _Eigh(*np.linalg.eigh(m))
    # eigh gives the eigenvalues in ascending order
    return f.w[..., 0] > EIGENVALUE_FLOOR, f


@dataclass(frozen=True)
class UnitVector:
    """Point on the unit hypersphere."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.array(self.coords, dtype=float)
        if c.ndim != 1 or c.size == 0 or not np.all(np.isfinite(c)):
            raise InvalidArgumentError("unit vector coords must be a finite 1-D array")
        if abs(np.linalg.norm(c) - 1.0) > 1e-10:
            raise InvalidArgumentError("unit vector must have norm 1 within 1e-10")
        object.__setattr__(self, "coords", _readonly(c))

    @property
    def p(self) -> int:
        return self.coords.size


@dataclass(frozen=True)
class Histogram:
    """Piecewise-uniform probability distribution on the line.

    ``edges`` are the m+1 strictly increasing bin boundaries and ``masses``
    the m nonnegative bin probabilities summing to one.
    """

    edges: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        e = np.array(self.edges, dtype=float)
        m = np.array(self.masses, dtype=float)
        if e.ndim != 1 or m.ndim != 1 or e.size != m.size + 1 or m.size == 0:
            raise InvalidArgumentError("need m+1 edges for m >= 1 masses")
        if not (np.all(np.isfinite(e)) and np.all(np.isfinite(m))):
            raise InvalidArgumentError("histogram entries must be finite")
        if np.any(np.diff(e) <= 0):
            raise InvalidArgumentError("histogram edges must be strictly increasing")
        if np.min(m) < 0:
            raise InvalidArgumentError("histogram masses must be nonnegative")
        if abs(m.sum() - 1.0) > 1e-10:
            raise InvalidArgumentError("histogram masses must sum to 1 within 1e-10")
        object.__setattr__(self, "edges", _readonly(e))
        object.__setattr__(self, "masses", _readonly(m))


@dataclass(frozen=True)
class EuclideanPoint:
    """Plain point in R^p."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.array(self.coords, dtype=float)
        if c.ndim != 1 or c.size == 0 or not np.all(np.isfinite(c)):
            raise InvalidArgumentError("point coords must be a finite 1-D array")
        object.__setattr__(self, "coords", _readonly(c))

    @property
    def p(self) -> int:
        return self.coords.size


_KIND_FOR_TYPE = {
    CorrelationMatrix: "corr",
    UnitVector: "sphere",
    Histogram: "hist",
    EuclideanPoint: "eucl",
}


@dataclass(frozen=True)
class ObjectSet:
    """Homogeneous collection of objects from one metric space.

    Correlation matrices, unit vectors and points must share one dimension;
    histograms may have different bin counts. ``labels``, when present,
    attach one string per object (used by the two-group inference routines).

    A set computes its distance matrix once, on first use, and every later
    :func:`distance_matrix` call returns that same matrix. This relies on
    the objects being immutable: each kind holds read-only copies of its
    arrays. The matrix is shared too, so its values are read-only and
    cannot be rebound.
    """

    items: tuple
    labels: tuple | None = None
    kind: str = field(init=False)

    def __post_init__(self):
        items = tuple(self.items)
        if not items:
            raise InvalidArgumentError("object set must be nonempty")
        kinds = {_KIND_FOR_TYPE.get(type(o)) for o in items}
        if None in kinds:
            bad = next(o for o in items if type(o) not in _KIND_FOR_TYPE)
            raise InvalidArgumentError(f"unsupported object type {type(bad).__name__}")
        if len(kinds) != 1:
            raise InvalidArgumentError(f"object set mixes kinds {sorted(kinds)}")
        kind = kinds.pop()
        dims = sorted({o.p for o in items}) if kind != "hist" else []
        if len(dims) > 1:
            raise InvalidArgumentError(f"object set mixes dimensions {dims}")
        labels = self.labels
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != len(items):
                raise InvalidArgumentError("labels length must match number of objects")
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "kind", kind)

    def __len__(self) -> int:
        return len(self.items)

    @property
    def metric(self) -> str:
        return METRIC_FOR_KIND[self.kind]

    @cached_property
    def _table(self) -> np.ndarray:
        """The objects' arrays stacked along a leading axis, read-only, built
        on first use. Histograms have none: their quantile table takes in
        the breakpoints of every histogram compared, the query's too."""
        return _readonly(_TABLE[self.kind](self.items))

    @cached_property
    def _distances(self) -> DistanceMatrix:
        """The objects' distance matrix, built on first use; a build that
        raises caches nothing."""
        kind = self.kind
        row = _ROW[kind]
        t = _quantile_table(self.items) if kind == "hist" else self._table
        n = len(self)
        out = np.zeros((n, n))
        for i in range(n - 1):
            out[i, i + 1:] = out[i + 1:, i] = row(t[i:i + 1], t[i + 1:])[0]
        return DistanceMatrix(out)


# ---------------------------------------------------------------------------
# distances


def _check_positive(w: np.ndarray) -> None:
    # not (min > floor), which holds for a NaN eigenvalue, unlike min <= floor
    if not np.min(w) > EIGENVALUE_FLOOR:
        raise NotPositiveDefiniteError(
            f"matrix has eigenvalue {np.min(w)}, not above {EIGENVALUE_FLOOR}")


def _spd_stack(items) -> np.ndarray:
    m = np.array([getattr(o, "entries", o) for o in items], dtype=float)
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise InvalidArgumentError(f"expected square matrices, got shape {m.shape[1:]}")
    # symmetrized to absorb round-off
    return 0.5 * (m + m.transpose(0, 2, 1))


def _coord_stack(items) -> np.ndarray:
    return np.array([getattr(o, "coords", o) for o in items], dtype=float)


def _spd_row(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Affine-invariant distances from each matrix of the (k, p, p) stack
    ``a`` to each matrix of the (n, p, p) stack ``b``, as (k, n): ``a`` is
    factored by one batched ``eigh``, then measured by
    :func:`_spd_factored_row`."""
    if a.ndim != 3 or a.shape[1:] != b.shape[1:]:
        raise InvalidArgumentError(f"dimension mismatch: {a.shape[1:]} vs {b.shape[1:]}")
    return _spd_factored_row(_Eigh(*np.linalg.eigh(a)), b)


def _spd_factored_row(f: _Eigh, b: np.ndarray) -> np.ndarray:
    """:func:`_spd_row` of the queries whose eigenpairs are ``f``: each
    query's inverse square root, then one batched congruence and one batched
    ``eigvalsh``."""
    w, v = f
    _check_positive(w)
    isqrt = ((v / np.sqrt(w)[:, None, :]) @ v.transpose(0, 2, 1))[:, None]
    m = isqrt @ b @ isqrt
    w = np.linalg.eigvalsh(0.5 * (m + m.swapaxes(-1, -2)))
    _check_positive(w)
    return np.sqrt(np.sum(np.log(w) ** 2, axis=-1))


def _euclidean_row(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.ndim != 2 or b.shape[1:] != a.shape[1:]:
        raise InvalidArgumentError(f"dimension mismatch: {a.shape[1:]} vs {b.shape[1:]}")
    d = a[:, None] - b
    return np.sqrt(np.vecdot(d, d))


def _sphere_row(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    half_chord = 0.5 * _euclidean_row(a, b)
    return 2.0 * np.arcsin(np.minimum(half_chord, 1.0))


def _cumulative(h: Histogram) -> np.ndarray:
    c = np.concatenate(([0.0], np.cumsum(h.masses)))
    # normalizing (masses sum to 1 within 1e-10) collapses trailing
    # zero-mass repeats to exactly 1, keeping merged breakpoints clean
    c /= c[-1]
    c[-1] = 1.0
    return c


def _quantile_on_pieces(h: Histogram, c: np.ndarray, t: np.ndarray, mid: np.ndarray) -> np.ndarray:
    """Quantile values at probabilities ``t``, each read off the linear piece
    that contains the companion interior point ``mid`` (avoids zero-mass-bin
    boundary ambiguity). Rows of ``t`` share one ``mid``."""
    j = np.searchsorted(c, mid, side="right") - 1
    # mid rounding to exactly 1 can select a trailing zero-mass bin
    positive = np.nonzero(np.diff(c) > 0)[0]
    j = np.clip(j, positive[0], positive[-1])
    width = c[j + 1] - c[j]
    e = h.edges
    return e[j] + (t - c[j]) * (e[j + 1] - e[j]) / width


@dataclass(frozen=True)
class _QuantileTable:
    """Quantile functions of several histograms on one merged grid of
    sub-intervals: their values at each sub-interval's start (``q0``) and
    end (``q1``), one row per histogram, and the weights ``w`` (width / 3).
    Indexing selects histograms and keeps the grid."""

    q0: np.ndarray
    q1: np.ndarray
    w: np.ndarray

    def __getitem__(self, rows) -> _QuantileTable:
        return _QuantileTable(self.q0[rows], self.q1[rows], self.w)


def _quantile_table(items) -> _QuantileTable:
    """Quantile table of ``items`` on the union of their cumulative
    breakpoints, on whose sub-intervals every quantile function is linear."""
    if not all(isinstance(h, Histogram) for h in items):
        raise InvalidArgumentError("Wasserstein distances need Histogram inputs")
    cs = [_cumulative(h) for h in items]
    ts = np.unique(np.concatenate(cs))
    t0, t1 = ts[:-1], ts[1:]
    mid = 0.5 * (t0 + t1)
    ends = np.stack((t0, t1))
    q = np.empty((len(items), 2, t0.size))
    for k, (h, c) in enumerate(zip(items, cs)):
        q[k] = _quantile_on_pieces(h, c, ends, mid)
    return _QuantileTable(q[:, 0], q[:, 1], (t1 - t0) / 3.0)


def _wasserstein_row(a: _QuantileTable, b: _QuantileTable) -> np.ndarray:
    g0 = a.q0[:, None] - b.q0
    g1 = a.q1[:, None] - b.q1
    # exact integral of the squared linear interpolant on each sub-interval,
    # w * (g0² + g0·g1 + g1²), built in place to hold three temporaries
    cross = g0 * g1
    g0 *= g0
    g0 += cross
    g1 *= g1
    g0 += g1
    g0 *= b.w
    # summing along the last axis adds up every row alike whatever the row
    # count, so a query row equals the matrix row bitwise (a BLAS
    # matrix-vector product does not)
    return np.sqrt(np.maximum(g0.sum(axis=-1), 0.0))


# per-object arrays of each kind, stacked along a leading axis; histograms
# have none, since a quantile table depends on every histogram compared
# (their breakpoints make its grid), and is built per call
_TABLE = {"corr": _spd_stack, "sphere": _coord_stack, "eucl": _coord_stack}
# one row evaluator per kind: (queries' table, objects' table) -> (queries,
# objects) distances
_ROW = {"corr": _spd_row, "sphere": _sphere_row, "hist": _wasserstein_row,
        "eucl": _euclidean_row}


def _query_rows(kind: str, xs, items, table=None) -> np.ndarray:
    """Distances from each of ``xs`` to each of ``items``, whose table is
    ``table`` when already built, as (len(xs), len(items))."""
    if kind == "hist":
        # a query's breakpoints join the merged grid, so each query has its own
        tables = (_quantile_table((x, *items)) for x in xs)
        return np.concatenate([_wasserstein_row(t[:1], t[1:]) for t in tables])
    if table is None:
        table = _TABLE[kind](items)
    return _ROW[kind](_TABLE[kind](xs), table)


def spd_distance(a, b) -> float:
    """Affine-invariant distance between positive definite matrices.

    Computed as the Frobenius norm of log(a^{-1/2} b a^{-1/2}) via symmetric
    eigendecompositions (inputs pre-symmetrized to absorb round-off).
    Accepts :class:`CorrelationMatrix` objects or raw arrays; only positive
    definiteness is required, not a unit diagonal.
    """
    return float(_query_rows("corr", (a,), (b,))[0, 0])


def sphere_distance(u, v) -> float:
    """Arc length between unit vectors, in [0, pi].

    Evaluated as 2*arcsin(chord/2), which agrees with arccos of the inner
    product for exact unit vectors but keeps d(u, u) = 0 exact and stays
    well-conditioned near coincident points.
    """
    return float(_query_rows("sphere", (u,), (v,))[0, 0])


def wasserstein2_distance(h1: Histogram, h2: Histogram) -> float:
    """Order-2 Wasserstein distance between piecewise-uniform histograms.

    Equals the L2 norm of the difference of the two quantile functions.
    Like every histogram distance, it is read off one merged grid per call:
    the union of the cumulative-probability breakpoints of all the
    histograms involved (here two), on whose sub-intervals both quantile
    functions are linear, so the integral of the squared difference is
    accumulated in closed form.
    """
    return float(_query_rows("hist", (h1,), (h2,))[0, 0])


def euclidean_distance(a, b) -> float:
    """Plain Euclidean norm of the difference."""
    return float(_query_rows("eucl", (a,), (b,))[0, 0])


def distance_matrix(objects: ObjectSet) -> DistanceMatrix:
    """Pairwise distance matrix of an object set.

    Each unordered pair is evaluated once, as row i against the objects
    after i; the matrix is exactly symmetric with an exactly zero diagonal.
    The set computes it on the first call and returns the same matrix on
    every later one.
    """
    return objects._distances


def query_distances(x, sample: ObjectSet) -> np.ndarray:
    """Distances from one query object to every object of ``sample``."""
    if _KIND_FOR_TYPE.get(type(x)) != sample.kind:
        raise InvalidArgumentError(
            f"query of type {type(x).__name__} does not match sample kind {sample.kind!r}"
        )
    table = None if sample.kind == "hist" else sample._table
    return _query_rows(sample.kind, (x,), sample.items, table)[0]


# ---------------------------------------------------------------------------
# JSON object formats


def object_to_dict(o) -> dict:
    if isinstance(o, CorrelationMatrix):
        return {"kind": "corr", "p": o.p, "rows": o.entries.tolist()}
    if isinstance(o, UnitVector):
        return {"kind": "sphere", "coords": o.coords.tolist()}
    if isinstance(o, Histogram):
        return {"kind": "hist", "edges": o.edges.tolist(), "masses": o.masses.tolist()}
    if isinstance(o, EuclideanPoint):
        return {"kind": "eucl", "coords": o.coords.tolist()}
    raise InvalidArgumentError(f"unsupported object type {type(o).__name__}")


def object_from_dict(d: dict):
    if not isinstance(d, dict) or "kind" not in d:
        raise InvalidArgumentError("object record must be a dict with a 'kind' field")
    kind = d["kind"]
    if kind == "corr":
        rows = np.asarray(d["rows"], dtype=float)
        p = int(d.get("p", rows.shape[0] if rows.ndim == 2 else -1))
        if rows.ndim != 2 or rows.shape != (p, p):
            raise InvalidArgumentError(f"corr rows must form a {p}x{p} matrix")
        return CorrelationMatrix(rows)
    if kind == "sphere":
        c = np.asarray(d["coords"], dtype=float)
        norm = np.linalg.norm(c)
        if abs(norm - 1.0) > 1e-6:
            raise InvalidArgumentError(f"sphere coords have norm {norm}, beyond 1e-6 of unit")
        return UnitVector(c / norm)
    if kind == "hist":
        return Histogram(np.asarray(d["edges"], dtype=float), np.asarray(d["masses"], dtype=float))
    if kind == "eucl":
        return EuclideanPoint(np.asarray(d["coords"], dtype=float))
    raise InvalidArgumentError(f"unknown object kind {kind!r}")


def load_objects(path) -> ObjectSet:
    """Read a JSON dataset: an array of same-kind objects, optional labels."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, list) or not data:
        raise InvalidArgumentError("dataset must be a nonempty JSON array of objects")
    items = []
    labels = []
    for i, rec in enumerate(data):
        try:
            items.append(object_from_dict(rec))
        except (InvalidArgumentError, NotPositiveDefiniteError, KeyError, TypeError) as exc:
            raise InvalidArgumentError(f"object {i}: {exc}") from exc
        labels.append(rec.get("label") if isinstance(rec, dict) else None)
    have_labels = [x for x in labels if x is not None]
    if have_labels and len(have_labels) != len(items):
        raise InvalidArgumentError("either all objects carry a 'label' or none do")
    return ObjectSet(tuple(items), tuple(labels) if have_labels else None)


def dump_objects(objects: ObjectSet, path) -> None:
    records = [object_to_dict(o) for o in objects.items]
    if objects.labels is not None:
        for rec, lab in zip(records, objects.labels):
            rec["label"] = lab
    with open(path, "w") as fh:
        json.dump(records, fh)


def load_histogram_csv(path) -> ObjectSet:
    """Read a labeled histogram dataset from CSV.

    One row per entity: label, then alternating edge/mass columns ending
    with the final edge (``label, e0, m0, e1, m1, ..., e_{m-1}, m_{m-1}, e_m``).
    """
    items = []
    labels = []
    with open(path) as fh:
        for lineno, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) < 4 or len(parts) % 2 != 0:
                raise InvalidArgumentError(
                    f"row {lineno}: expected label plus alternating edge/mass columns"
                )
            try:
                vals = np.array([float(x) for x in parts[1:]])
            except ValueError as exc:
                raise InvalidArgumentError(f"row {lineno}: {exc}") from exc
            edges = vals[0::2]
            masses = vals[1::2]
            try:
                items.append(Histogram(edges, masses))
            except InvalidArgumentError as exc:
                raise InvalidArgumentError(f"row {lineno}: {exc}") from exc
            labels.append(parts[0])
    if not items:
        raise InvalidArgumentError("histogram CSV contains no rows")
    return ObjectSet(tuple(items), tuple(labels))
