"""Deepest-object estimation.

The in-sample estimator returns the sample object with maximal full-sample
depth, the lowest index on ties. MOD3 states go to ``depths._mod3_argmax``,
which gives the full pass's pick and depth bitwise, mostly by exact
elimination (its notes say when). The other four methods take the full
pass.

The out-of-sample estimator lifts the search off the sample grid:
objects are mapped to Euclidean coordinates (correlation matrices via the
Cholesky half-vectorization), reduced by PCA, and a box-constrained
maximizer of the depth, :func:`optimize_box`, is run from the top in-sample
starts. Two optimizers are available:

* ``simplex-box`` -- derivative-free Nelder-Mead run in an unconstrained
  space obtained by a per-coordinate scaled arctan/tan box transform
  (default; robust on the piecewise-smooth depth surface).
* ``quasi-newton-box`` -- limited-memory quasi-Newton with gradient
  projection onto the box (scipy's L-BFGS-B), gradients from central
  finite differences.

Both report the best point ever evaluated, so the returned value never
falls below the objective at the start. Both stop at the evaluation
budget exactly: a block of points that does not fit is cut at it.

The search scores candidates in blocks: :func:`optimize_box` takes a block
objective, which maps a (k, r) array of points to their k values. The depth
objective decodes every row of PCA coordinates at once, measures the rows
that decode with one stacked distance call, and scores them with one depth
block; rows that do not decode score below the method's range. The decode
tests positive definiteness with one ``eigh`` of the block, and the
distances start from those eigenpairs. Each row's value is bitwise what
scoring it alone gives, so scoring rows together changes no start's
search. The objective gets several points at once from these steps:

* the values of all the starts, as one block;
* ``simplex-box``: the starts run in lockstep, so each call scores the
  next step of every live start together: their initial simplexes
  (r + 1 points each), then per start a reflect, expand or contract point
  or a shrink (r points). A start leaves the lockstep when its simplex
  converges or its budget runs out;
* ``quasi-newton-box``: each gradient, whose 2r central-difference points
  scipy passes together to its ``workers`` map-like hook; scipy's own step
  rule and bound handling are unchanged.

Within a start the steps stay sequential. Each Nelder-Mead reflect,
expand or contract point depends on the values before it, and L-BFGS-B's
line-search points come one at a time. Its starts run one after another:
scipy drives each search from its own loop, so scoring them together would
take a thread per start. Scoring points ahead of time would spend
evaluations, which the budget counts, on points the search may not take.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import check_count, sized_distance_array
from .depths import (
    DepthMethod,
    _depths,
    _mod3_argmax,
    depth_values,
    sample_state,
)
from .errors import (
    DegenerateDecodeError,
    InsufficientSampleError,
    InvalidArgumentError,
    NotPositiveDefiniteError,
)
from .spaces import (
    CorrelationMatrix,
    ObjectSet,
    _Eigh,
    _positive_definite,
    _spd_factored_row,
    distance_matrix,
)

_NM_REFLECT, _NM_EXPAND, _NM_CONTRACT, _NM_SHRINK = 1.0, 2.0, 0.5, 0.5
_NM_STEP_FRACTION = 0.10  # initial simplex step, as a fraction of box width
_FTOL = 1e-8  # objective tolerance: simplex spread, or L-BFGS-B's relative decrease
_FD_STEP = 1e-6  # relative central-difference step (quasi-Newton)


@dataclass(frozen=True)
class PcaModel:
    """Centered principal-component reduction fitted to encoded objects."""

    mean: np.ndarray
    components: np.ndarray  # (r, q), orthonormal rows
    explained: np.ndarray  # variance ratios of the retained components
    r: int
    tsh: float


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs of the box-constrained depth maximization."""

    algorithm: str = "simplex-box"
    half_width: float = 0.05
    max_evaluations: int | None = None  # None: 500 * dimension
    starts: int = 5

    def __post_init__(self):
        if self.algorithm not in ("simplex-box", "quasi-newton-box"):
            raise InvalidArgumentError(
                f"unknown algorithm {self.algorithm!r}; use 'simplex-box' or 'quasi-newton-box'"
            )
        # NaN fails the comparison; a width 2 * half_width beyond the largest
        # float would search NaN points
        if not (self.half_width > 0 and math.isfinite(2 * float(self.half_width))):
            raise InvalidArgumentError(
                f"box half-width must be positive, with a finite width; got {self.half_width!r}")
        check_count(self.starts, "starts")
        if self.max_evaluations is not None:
            check_count(self.max_evaluations, "max_evaluations")


@dataclass(frozen=True)
class DeepestResult:
    """Estimated deepest object, its depth, and how it was found."""

    depth: float
    source: str  # "in-sample" or "out-of-sample"
    index: int | None = None  # sample index (in-sample estimates)
    object: object | None = None
    start_index: int | None = None
    evaluations: int = 0

    def to_dict(self) -> dict:
        from .spaces import object_to_dict

        return {
            "depth": float(self.depth),
            "source": self.source,
            "index": self.index,
            "object": None if self.object is None else object_to_dict(self.object),
            "start_index": self.start_index,
            "evaluations": int(self.evaluations),
        }


def deepest_in_sample(dm, method: DepthMethod) -> DeepestResult:
    """Sample index maximizing the full-sample depth (lowest index on ties).

    MOD3 takes ``depths._mod3_argmax``, which drops the objects that cannot
    reach the depth of the object scored first where its notes allow, and
    scores every object elsewhere; the result is bitwise the full pass's.
    The other methods compute every depth.

    :class:`MetricViolationError` is raised for a kernel radicand below its
    round-off tolerance, as by ``depth_values``, but only among the kernels
    evaluated: on an uncertified sample those of the object scored first,
    of the survivors, and of each dropped object up to the tile in which it
    was dropped. So every radicand is checked only when each object's
    triples fit in its first tile, as they do up to n = 22. Check an
    untrusted distance matrix with :func:`check_metric_axioms` first.
    """
    method = DepthMethod(method)
    state = sample_state(dm, method)
    if method is DepthMethod.MOD3:
        pick, depth = _mod3_argmax(state)
        i0, depth = int(pick[0]), float(depth[0])
    else:
        values = depth_values(state, method)
        i0 = int(np.argmax(values))
        depth = float(values[i0])
    return DeepestResult(depth=depth, source="in-sample", index=i0)


# ---------------------------------------------------------------------------
# correlation-matrix chart


@lru_cache(maxsize=16)
def _tril(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the lower triangle of a p x p matrix,
    row-major."""
    out = np.tril_indices(p)
    for a in out:
        a.flags.writeable = False
    return out


def cholesky_encode(x) -> np.ndarray:
    """Row-major lower-triangular entries of the Cholesky factor of ``x``."""
    m = np.asarray(getattr(x, "entries", x), dtype=float)
    try:
        low = np.linalg.cholesky(0.5 * (m + m.T))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"cannot factor matrix: {exc}") from exc
    return low[_tril(m.shape[0])]


def cholesky_decode(v) -> CorrelationMatrix:
    """Rebuild a correlation matrix from packed Cholesky entries.

    The vector is unpacked into a lower-triangular factor L, S = L L' is
    formed, and S is rescaled to a unit diagonal. Raises
    :class:`DegenerateDecodeError` when the vector has a non-finite entry,
    S overflows the floating-point range, S has a (near-)zero diagonal or
    the rescaled matrix fails to be positive definite, so a decoded object
    is always valid.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise InvalidArgumentError("encoded vector must be 1-D")
    p = int((math.isqrt(8 * v.size + 1) - 1) // 2)
    if p * (p + 1) // 2 != v.size:
        raise InvalidArgumentError(f"length {v.size} is not a triangular number")
    matrices, _, reasons = _decode_rows(v[None], p)
    if reasons[0] is not None:
        raise DegenerateDecodeError(reasons[0])
    return CorrelationMatrix(matrices[0])


def _decode_rows(v: np.ndarray, p: int) -> tuple[np.ndarray, _Eigh, list]:
    """:func:`cholesky_decode` of every row of the (k, p(p+1)/2) array ``v``.

    Returns the checked entries of the rows that decode, stacked in order,
    their eigenpairs, from the positive-definiteness test, and per row None
    or the reason it does not decode. A row fails when it
    has a non-finite entry, when L L' or the products of its diagonal
    entries overflow, or when L L' has a (near-)zero diagonal entry. The
    rescaled matrix of any other row is finite and symmetric with a unit
    diagonal, so the one check of :class:`CorrelationMatrix` that it can
    fail is positive definiteness.
    """
    k = v.shape[0]
    reasons = [None] * k
    finite = np.isfinite(v).all(axis=1)
    low = np.zeros((k, p, p))
    rows, cols = _tril(p)
    low[:, rows, cols] = v
    # a non-finite entry or an overflow leaves an infinite or NaN entry,
    # which is tested for here
    with np.errstate(over="ignore", invalid="ignore"):
        s = low @ low.transpose(0, 2, 1)
        d = np.diagonal(s, axis1=1, axis2=2)
        scale = d[:, :, None] * d[:, None, :]
    bounded = np.isfinite(s).all(axis=(1, 2)) & np.isfinite(scale).all(axis=(1, 2))
    smallest = d.min(axis=1)
    scaled = finite & bounded & (smallest > 1e-12)
    # rows are picked out only when some row fails: a 1-row decode took
    # 60-75 us with the picking and the loops over failures, 38 us without
    if not scaled.all():
        for t in np.flatnonzero(~scaled):
            if not finite[t]:
                reasons[t] = "encoded vector entries must be finite"
            elif not bounded[t]:
                reasons[t] = "decoded matrix overflows the floating-point range"
            else:
                reasons[t] = f"decoded matrix has diagonal entry {smallest[t]} <= 1e-12"
        s, scale = s[scaled], scale[scaled]
    out = s / np.sqrt(scale)
    out = 0.5 * (out + out.transpose(0, 2, 1))
    diag = np.arange(p)
    out[:, diag, diag] = 1.0
    valid, f = _positive_definite(out)
    if valid.all():
        return out, f, reasons
    for t, ok in zip(np.flatnonzero(scaled), valid):
        if not ok:
            reasons[t] = ("decoded matrix is not a valid correlation: "
                          "correlation matrix is not positive definite")
    return out[valid], _Eigh(f.w[valid], f.v[valid]), reasons


# ---------------------------------------------------------------------------
# PCA reduction


def _check_tsh(tsh: float) -> None:
    if not 0.0 < tsh <= 1.0:
        raise InvalidArgumentError(f"tsh must be in (0, 1], got {tsh}")


def pca_fit(data, tsh: float) -> PcaModel:
    """Fit a PCA reduction to encoded objects (rows of ``data``).

    The retained dimension is the smallest k whose cumulative explained
    variance reaches ``tsh``, floored at 2 and capped at min(n, q). Each
    component's first nonzero coordinate is made positive so fits are
    reproducible across platforms.
    """
    x = np.asarray(data, dtype=float)
    if x.ndim != 2:
        raise InvalidArgumentError("training data must be an (n, q) matrix")
    n, q = x.shape
    if n < 2:
        raise InsufficientSampleError(f"PCA needs at least 2 rows, got {n}")
    _check_tsh(tsh)
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (n - 1)
    w, vecs = np.linalg.eigh(0.5 * (cov + cov.T))
    w = np.maximum(w[::-1], 0.0)
    vecs = vecs[:, ::-1]
    total = float(w.sum())
    ratios = w / total if total > 0 else np.zeros_like(w)
    cumulative = np.cumsum(ratios)
    qualifying = np.nonzero(cumulative >= tsh - 1e-12)[0]
    k = int(qualifying[0]) + 1 if qualifying.size else len(w)
    r = min(max(2, k), min(n, q), len(w))
    components = vecs[:, :r].T.copy()
    for row in components:
        nz = np.nonzero(np.abs(row) > 1e-12)[0]
        if nz.size and row[nz[0]] < 0:
            row *= -1.0
    return PcaModel(mean=mean, components=components, explained=ratios[:r], r=r, tsh=tsh)


def pca_encode(model: PcaModel, v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != model.mean.shape:
        raise InvalidArgumentError(f"expected length {model.mean.size}, got {v.shape}")
    return model.components @ (v - model.mean)


def pca_decode(model: PcaModel, w) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.shape != (model.r,):
        raise InvalidArgumentError(f"expected length {model.r}, got {w.shape}")
    return _pca_decode_rows(model, w[None])[0]


def _pca_decode_rows(model: PcaModel, w: np.ndarray) -> np.ndarray:
    """:func:`pca_decode` of every row of the (k, r) array ``w``."""
    # one matrix-vector product per row: a matrix product of the whole
    # block would round differently
    return model.mean + (model.components.T @ w[:, :, None])[:, :, 0]


# ---------------------------------------------------------------------------
# box-constrained maximization


class _BudgetExhausted(Exception):
    pass


@dataclass
class _Incumbent:
    point: np.ndarray
    value: float
    budget: int
    evaluations: int = 0

    def room(self, xs: np.ndarray) -> np.ndarray:
        """The leading rows of ``xs`` that fit in the evaluation budget."""
        return xs[:max(self.budget - self.evaluations, 0)]

    def take(self, xs: np.ndarray, values) -> None:
        """Count the scored rows ``xs`` as evaluations; in order, each
        becomes the incumbent when its value is finite and above the
        incumbent's."""
        for x, val in zip(xs, values):
            self.evaluations += 1
            if np.isfinite(val) and val > self.value:
                self.point, self.value = x.copy(), float(val)

    def score(self, block, xs: np.ndarray) -> np.ndarray:
        """Values of the block objective at the rows of ``xs``, taken as
        evaluations. A block that does not fit in the evaluation budget is
        cut at it: the rows that fit are scored, then _BudgetExhausted is
        raised."""
        fit = self.room(xs)
        if len(fit) < len(xs):
            if len(fit):
                self.take(fit, block(fit))
            raise _BudgetExhausted
        values = block(xs)
        self.take(xs, values)
        return values


def _check_box(start, lower, upper):
    start = np.asarray(start, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if start.ndim not in (1, 2) or start.shape != lower.shape or start.shape != upper.shape:
        raise InvalidArgumentError(
            "start, lower, upper must be 1-D vectors (or stacks of them) of equal shape")
    # NaN fails every comparison; an infinite bound, or a width beyond the
    # largest float, gives an infinite width
    with np.errstate(over="ignore", invalid="ignore"):
        width = upper - lower
    if not np.all((0 < width) & (width < np.inf)):
        raise InvalidArgumentError(
            "lower bounds must be strictly below upper bounds, with finite bounds and widths")
    if not np.all((lower <= start) & (start <= upper)):
        raise InvalidArgumentError("start must be finite and lie within the bounds")
    return start, lower, upper


def _nelder_mead_box(start, lower, upper):
    """Nelder-Mead from ``start`` over the box, as a generator: it yields
    each step's (k, r) block of points and is sent back their k objective
    values. It returns once the simplex's values lie within ``_FTOL``."""
    width = upper - lower
    margin = 1e-12

    def to_unconstrained(x):
        ratio = np.clip((x - lower) / width, margin, 1.0 - margin)
        return np.tan(np.pi * (ratio - 0.5))

    def to_box(u):
        return lower + width * (np.arctan(u) / np.pi + 0.5)

    def evaluate(us):
        """Negated objective at the points ``us`` (a list), as one block."""
        values = yield to_box(np.array(us))
        return [-float(v) if np.isfinite(v) else np.inf for v in values]  # minimize the negation

    r = start.size
    simplex = [start.copy()]
    for axis in range(r):
        step = _NM_STEP_FRACTION * width[axis]
        vertex = start.copy()
        vertex[axis] = vertex[axis] + step if vertex[axis] + step <= upper[axis] else vertex[axis] - step
        simplex.append(vertex)
    us = [to_unconstrained(x) for x in simplex]
    fs = yield from evaluate(us)
    while True:
        order = np.argsort(fs, kind="stable")
        us = [us[t] for t in order]
        fs = [fs[t] for t in order]
        finite = [f for f in fs if np.isfinite(f)]
        if len(finite) == len(fs) and max(fs) - min(fs) <= _FTOL:
            return
        centroid = np.mean(us[:-1], axis=0)
        reflected = centroid + _NM_REFLECT * (centroid - us[-1])
        [f_r] = yield from evaluate([reflected])
        if f_r < fs[0]:
            expanded = centroid + _NM_EXPAND * (reflected - centroid)
            [f_e] = yield from evaluate([expanded])
            us[-1], fs[-1] = (expanded, f_e) if f_e < f_r else (reflected, f_r)
        elif f_r < fs[-2]:
            us[-1], fs[-1] = reflected, f_r
        else:
            if f_r < fs[-1]:
                contracted = centroid + _NM_CONTRACT * (reflected - centroid)
            else:
                contracted = centroid - _NM_CONTRACT * (centroid - us[-1])
            [f_c] = yield from evaluate([contracted])
            if f_c < min(f_r, fs[-1]):
                us[-1], fs[-1] = contracted, f_c
            else:
                us[1:] = [us[0] + _NM_SHRINK * (u - us[0]) for u in us[1:]]
                fs[1:] = yield from evaluate(us[1:])


def _lockstep(block, searches, bests) -> None:
    """Run the search generators ``searches`` side by side, each taking its
    evaluations in its own incumbent of ``bests``. At each step every live
    search's pending block is cut at its budget, the cut blocks are scored
    as one call of ``block``, and each search is sent its own values. A
    search ends when it returns or when its block was cut."""
    pending = [(search, best, next(search)) for search, best in zip(searches, bests)]
    while pending:
        fits = [best.room(xs) for _, best, xs in pending]
        rows = np.concatenate(fits)
        values = block(rows) if len(rows) else np.empty(0)
        live = []
        end = 0
        for (search, best, xs), fit in zip(pending, fits):
            vals = values[end:end + len(fit)]
            end += len(fit)
            best.take(fit, vals)
            if len(fit) < len(xs):
                continue
            with suppress(StopIteration):
                live.append((search, best, search.send(vals)))
        pending = live


def _lbfgsb_box(block, start, lower, upper, best: _Incumbent):
    # imported here: scipy.optimize takes most of the package's import time
    from scipy.optimize import minimize

    def negated(xs):
        return -best.score(block, xs)

    def gradient_points(fun, points):
        # scipy's map-like hook receives all the finite-difference points of
        # one gradient; ``fun`` only copies each point and casts it to the
        # start's dtype before the objective, so they are scored here as one
        # block, in scipy's order
        return negated(np.array(list(points), dtype=float))

    # scipy checks its own ``maxfun`` only between iterations, so a line
    # search or a gradient could run past it; the budget is kept by
    # ``best.score`` instead, and ``maxfun`` only keeps scipy's default
    # (15000) from ending a larger budget early
    minimize(
        lambda x: float(negated(np.asarray(x, dtype=float)[None])[0]),
        start,
        method="L-BFGS-B",
        jac="3-point",
        bounds=list(zip(lower, upper)),
        options={
            "maxcor": 6,
            "ftol": _FTOL,
            "maxfun": best.budget,
            "finite_diff_rel_step": _FD_STEP,
            "workers": gradient_points,
        },
    )


def optimize_box(block, start, lower, upper, cfg: OptimizerConfig | None = None):
    """Maximize ``block`` over the box [lower, upper] from ``start``.

    ``block`` is a block objective: it maps a (k, r) array of points to
    their k values. ``start``, ``lower`` and ``upper`` are r-vectors, or
    (s, r) stacks of s starts and their boxes, each start searched in its
    own box. Returns ``(argmax, value, evaluations)`` for the best point
    scored, which never scores below ``start`` and always lies inside the
    box; for a stack, each is an array with one entry per start. At most
    ``cfg.max_evaluations`` points are scored per start (by default 500
    per coordinate). Non-finite values are treated as worst-possible during
    the search, and are an error at a start.

    The starts' values are scored as one block. ``simplex-box`` then runs
    the starts in lockstep: at each step, the points every live start needs
    next (its initial simplex, a reflect, expand or contract point, or a
    shrink) are scored as one block. ``quasi-newton-box`` runs the starts
    one after another, and scores the points of each gradient as one
    block. A start's result is the one its search alone gives when the
    objective scores each row of a block as it scores the row alone.
    """
    cfg = cfg or OptimizerConfig()
    start, lower, upper = _check_box(start, lower, upper)
    starts, lowers, uppers = np.atleast_2d(start, lower, upper)
    max_evals = cfg.max_evaluations or 500 * starts.shape[1]
    f0 = block(starts)
    for f in f0:
        if not np.isfinite(f):
            raise InvalidArgumentError(f"objective is not finite at the start: {float(f)}")
    bests = [_Incumbent(point=x.copy(), value=float(f), budget=max_evals, evaluations=1)
             for x, f in zip(starts, f0)]
    boxes = zip(starts, lowers, uppers)
    if cfg.algorithm == "simplex-box":
        _lockstep(block, [_nelder_mead_box(*box) for box in boxes], bests)
    else:
        for box, best in zip(boxes, bests):
            with suppress(_BudgetExhausted):
                _lbfgsb_box(block, *box, best)
    if start.ndim == 1:
        return bests[0].point, bests[0].value, bests[0].evaluations
    return (np.array([best.point for best in bests]), np.array([best.value for best in bests]),
            np.array([best.evaluations for best in bests]))


# ---------------------------------------------------------------------------
# out-of-sample pipeline


def deepest_out_of_sample(objects: ObjectSet, method: DepthMethod, tsh: float = 0.9,
                          cfg: OptimizerConfig | None = None, dm=None) -> DeepestResult:
    """Box-constrained multistart depth maximization over the Cholesky chart.

    Supports correlation matrices of dimension p >= 2. Pipeline: encode all
    objects (:func:`cholesky_encode`); fit a PCA reduction at threshold ``tsh``;
    take the top ``cfg.starts`` in-sample deepest objects as starts in PCA
    coordinates; around each start maximize the depth of the decoded object
    over the box start +/- half_width per coordinate; return the decoded
    object of the best run. Coordinate vectors that fail to decode score
    below the method's range instead of aborting the run. The result's
    depth never falls below the depth of any reconstructed start. The
    pipeline is deterministic.

    ``dm`` is used in place of the objects' distance matrix, as given; it
    must be n x n, for the n objects, and is checked before the PCA fit.
    Without it, the set's own matrix is used, which the set computes once
    however many searches run on it.
    """
    method = DepthMethod(method)
    cfg = cfg or OptimizerConfig()
    if objects.kind != "corr" or objects.items[0].p < 2:
        raise InvalidArgumentError(
            "out-of-sample estimation supports correlation matrices with p >= 2 only"
        )
    if dm is not None:
        sized_distance_array(dm, len(objects))
    data = np.array([cholesky_encode(o) for o in objects.items])
    model = pca_fit(data, tsh)
    if dm is None:
        dm = distance_matrix(objects)
    # the sample-side work of the depth is shared by every evaluation
    state = sample_state(dm, method)
    values = depth_values(state, method)
    ranked = np.argsort(-values, kind="stable")
    starts = [int(t) for t in ranked[: min(cfg.starts, len(ranked))]]
    failure_score = method.value_range[0] - 1.0
    p = objects.items[0].p

    def objective(w):
        # decode every row, then measure and score the rows that decode
        # together, from the eigenpairs of the decode's positive-definiteness
        # test: one stacked distance call and one depth block. The distance
        # call refuses a NaN or nonpositive eigenvalue, so its (rows, n)
        # distances are finite and nonnegative
        _, factors, reasons = _decode_rows(_pca_decode_rows(model, w), p)
        values = np.full(w.shape[0], failure_score)
        decoded = np.array([reason is None for reason in reasons])
        if decoded.any():
            values[decoded] = _depths(state, _spd_factored_row(factors, objects._table))
        return values

    w0 = np.array([pca_encode(model, data[sample_index]) for sample_index in starts])
    points, scores, evals = optimize_box(objective, w0, w0 - cfg.half_width,
                                         w0 + cfg.half_width, cfg)
    total_evals = int(evals.sum())
    # the first start among those of the highest value
    rank = int(np.argmax(scores))
    value, point, sample_index = scores[rank], points[rank], starts[rank]
    if value <= failure_score:
        # every evaluation of every run failed to decode; fall back to the
        # best in-sample object, which is always valid
        i0 = starts[0]
        return DeepestResult(depth=float(values[i0]), source="in-sample", index=i0,
                             object=objects.items[i0], start_index=i0,
                             evaluations=total_evals)
    decoded = cholesky_decode(pca_decode(model, point))
    return DeepestResult(depth=float(value), source="out-of-sample", object=decoded,
                         start_index=sample_index, evaluations=total_evals)
