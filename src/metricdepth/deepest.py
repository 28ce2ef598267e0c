"""Deepest-object estimation.

The in-sample estimator returns the sample object with maximal full-sample
depth, the lowest index on ties. For MOD3 it finds that object without
computing every depth, by exact elimination:

* Certificate: the sample must embed in a Euclidean space, checked by one
  ``eigvalsh`` of the classical-MDS Gram (``depths.euclidean_certificate``,
  relative tolerance ``depths.EMBEDDING_TOL`` = 1e-9). Every MOD3 kernel of
  a sample object is then at least 2 d_i d_j d_k, so the object's mean
  kernel is at least 2 e3(its distance row) / C(n, 3)
  (``depths.mod3_lower_bounds``, all n in O(n^2)).
* Elimination: objects are scored in increasing order of bound, each as a
  1-row block of the unchanged MOD3 evaluator, until the next bound
  exceeds the best mean kernel by more than the relative margin
  ``_ELIMINATION_MARGIN`` = 1e-9 (compared as depths, so that depths equal
  after rounding still tie). On histogram and Euclidean samples one to
  three objects are scored instead of n.
* Fallback: uncertified samples (correlation, sphere, non-metric input)
  and subsampled MOD3 states over fewer than C(n, 3) triples take the full
  pass, as do the other four methods.

Each score is bitwise the full pass's, and a skipped object cannot reach
the best depth, so the pick and its depth are those of the full pass.

The out-of-sample estimator lifts the search off the sample grid:
objects are mapped to Euclidean coordinates (correlation matrices via the
Cholesky half-vectorization), reduced by PCA, and a box-constrained
maximizer of the depth is run from the top in-sample starts. Two optimizers
are available:

* ``simplex-box`` -- derivative-free Nelder-Mead run in an unconstrained
  space obtained by a per-coordinate scaled arctan/tan box transform
  (default; robust on the piecewise-smooth depth surface).
* ``quasi-newton-box`` -- limited-memory quasi-Newton with gradient
  projection onto the box (scipy's L-BFGS-B), gradients from central
  finite differences.

Both report the best point ever evaluated, so the returned value never
falls below the objective at the start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .depths import (
    DepthMethod,
    depth_of_query,
    depth_values,
    euclidean_certificate,
    mod3_lower_bounds,
    sample_state,
)
from .errors import (
    DegenerateDecodeError,
    InsufficientSampleError,
    InvalidArgumentError,
    NotPositiveDefiniteError,
)
from .spaces import CorrelationMatrix, ObjectSet, distance_matrix, query_distances

_NM_REFLECT, _NM_EXPAND, _NM_CONTRACT, _NM_SHRINK = 1.0, 2.0, 0.5, 0.5
_NM_STEP_FRACTION = 0.10  # initial simplex step, as a fraction of box width
_FTOL = 1e-8  # objective tolerance: simplex spread, or L-BFGS-B's relative decrease
_FD_STEP = 1e-6  # relative central-difference step (quasi-Newton)
# relative margin of the in-sample MOD3 elimination: an object is skipped
# only when its lower bound exceeds the best mean kernel by more than this
_ELIMINATION_MARGIN = 1e-9


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
        if self.half_width <= 0:
            raise InvalidArgumentError("box half-width must be positive")
        if self.starts < 1:
            raise InvalidArgumentError("need at least one start")
        if self.max_evaluations is not None and self.max_evaluations < 1:
            raise InvalidArgumentError("max_evaluations must be positive")


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

    For MOD3 on a sample that passes :func:`euclidean_certificate` (Gram
    eigenvalues no lower than -1e-9 times the largest), the argmax is found
    by exact elimination: every object's depth is at most 1/(1 + its
    :func:`mod3_lower_bounds` bound), objects are scored one by one in
    increasing order of bound, and scoring stops once no unscored object
    can reach the best depth found, with the bound relaxed by a relative
    margin of 1e-9. Each score is a 1-row block of the MOD3 evaluator,
    bitwise equal to that object's entry of ``depth_values``, so the result
    is the full pass's. Otherwise (another method, an uncertified sample,
    or a subsampled state over fewer than C(n, 3) triples) every depth is
    computed.
    """
    method = DepthMethod(method)
    state = sample_state(dm, method)
    n = state.values.shape[0]
    if (method is DepthMethod.MOD3 and state.index[0].size == math.comb(n, 3)
            and euclidean_certificate(state.values)):
        i0, depth = _mod3_argmax(state)
    else:
        values = depth_values(state, method)
        i0 = int(np.argmax(values))
        depth = float(values[i0])
    return DeepestResult(depth=depth, source="in-sample", index=i0)


def _mod3_argmax(state) -> tuple[int, float]:
    """Index and depth of the deepest object of a certified MOD3 state."""
    bound = mod3_lower_bounds(state.values)
    # an object's depth is at most this; the margin covers the round-off by
    # which a computed mean kernel can fall below its bound, as it does where
    # the bound is tight (det B3 = 0 on one- and two-dimensional data)
    ceiling = 1.0 / (1.0 + bound / (1.0 + _ELIMINATION_MARGIN))
    best, best_depth = -1, -np.inf
    # ceilings do not increase along this order, so the first one below the
    # best depth ends the search (an equal one may still tie, and is scored)
    for c in np.argsort(bound, kind="stable"):
        if ceiling[c] < best_depth:
            break
        depth = depth_of_query(state.values[c], state, DepthMethod.MOD3)
        if depth > best_depth or (depth == best_depth and c < best):
            best, best_depth = int(c), depth
    return best, best_depth


# ---------------------------------------------------------------------------
# correlation-matrix chart


def cholesky_encode(x) -> np.ndarray:
    """Row-major lower-triangular entries of the Cholesky factor of ``x``."""
    m = np.asarray(getattr(x, "entries", x), dtype=float)
    try:
        low = np.linalg.cholesky(0.5 * (m + m.T))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"cannot factor matrix: {exc}") from exc
    return low[np.tril_indices(m.shape[0])]


def cholesky_decode(v) -> CorrelationMatrix:
    """Rebuild a correlation matrix from packed Cholesky entries.

    The vector is unpacked into a lower-triangular factor L, S = L L' is
    formed, and S is rescaled to a unit diagonal. Raises
    :class:`DegenerateDecodeError` when S has a (near-)zero diagonal or the
    rescaled matrix fails to be positive definite, so a decoded object is
    always valid.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise InvalidArgumentError("encoded vector must be 1-D")
    p = int((math.isqrt(8 * v.size + 1) - 1) // 2)
    if p * (p + 1) // 2 != v.size:
        raise InvalidArgumentError(f"length {v.size} is not a triangular number")
    low = np.zeros((p, p))
    low[np.tril_indices(p)] = v
    s = low @ low.T
    d = np.diagonal(s).copy()
    if np.min(d) <= 1e-12:
        raise DegenerateDecodeError(f"decoded matrix has diagonal entry {np.min(d)} <= 1e-12")
    out = s / np.sqrt(np.outer(d, d))
    out = 0.5 * (out + out.T)
    np.fill_diagonal(out, 1.0)
    try:
        return CorrelationMatrix(out)
    except (InvalidArgumentError, NotPositiveDefiniteError) as exc:
        raise DegenerateDecodeError(f"decoded matrix is not a valid correlation: {exc}") from exc


# ---------------------------------------------------------------------------
# PCA reduction


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
    if not 0.0 < tsh <= 1.0:
        raise InvalidArgumentError(f"tsh must be in (0, 1], got {tsh}")
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
    return model.mean + model.components.T @ w


# ---------------------------------------------------------------------------
# box-constrained maximization


@dataclass
class _Incumbent:
    point: np.ndarray
    value: float
    evaluations: int = 0


class _BudgetExhausted(Exception):
    pass


def _check_box(start, lower, upper):
    start = np.asarray(start, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if start.ndim != 1 or start.shape != lower.shape or start.shape != upper.shape:
        raise InvalidArgumentError("start, lower, upper must be 1-D vectors of equal length")
    if not np.all(lower < upper):
        raise InvalidArgumentError("lower bounds must be strictly below upper bounds")
    if np.any(start < lower) or np.any(start > upper):
        raise InvalidArgumentError("start must lie within the bounds")
    return start, lower, upper


def _nelder_mead_box(objective, start, lower, upper, max_evals, best: _Incumbent):
    width = upper - lower
    margin = 1e-12

    def to_unconstrained(x):
        ratio = np.clip((x - lower) / width, margin, 1.0 - margin)
        return np.tan(np.pi * (ratio - 0.5))

    def to_box(u):
        return lower + width * (np.arctan(u) / np.pi + 0.5)

    def evaluate(u):
        if best.evaluations >= max_evals:
            raise _BudgetExhausted
        x = to_box(u)
        val = float(objective(x))
        best.evaluations += 1
        if np.isfinite(val) and val > best.value:
            best.point, best.value = x.copy(), val
        return -val if np.isfinite(val) else np.inf  # minimize the negation

    r = start.size
    simplex = [start.copy()]
    for axis in range(r):
        step = _NM_STEP_FRACTION * width[axis]
        vertex = start.copy()
        vertex[axis] = vertex[axis] + step if vertex[axis] + step <= upper[axis] else vertex[axis] - step
        simplex.append(vertex)
    us = [to_unconstrained(x) for x in simplex]
    try:
        fs = [evaluate(u) for u in us]
        while True:
            order = np.argsort(fs, kind="stable")
            us = [us[t] for t in order]
            fs = [fs[t] for t in order]
            finite = [f for f in fs if np.isfinite(f)]
            if len(finite) == len(fs) and max(fs) - min(fs) <= _FTOL:
                break
            centroid = np.mean(us[:-1], axis=0)
            reflected = centroid + _NM_REFLECT * (centroid - us[-1])
            f_r = evaluate(reflected)
            if f_r < fs[0]:
                expanded = centroid + _NM_EXPAND * (reflected - centroid)
                f_e = evaluate(expanded)
                us[-1], fs[-1] = (expanded, f_e) if f_e < f_r else (reflected, f_r)
            elif f_r < fs[-2]:
                us[-1], fs[-1] = reflected, f_r
            else:
                if f_r < fs[-1]:
                    contracted = centroid + _NM_CONTRACT * (reflected - centroid)
                else:
                    contracted = centroid - _NM_CONTRACT * (centroid - us[-1])
                f_c = evaluate(contracted)
                if f_c < min(f_r, fs[-1]):
                    us[-1], fs[-1] = contracted, f_c
                else:
                    for t in range(1, len(us)):
                        us[t] = us[0] + _NM_SHRINK * (us[t] - us[0])
                        fs[t] = evaluate(us[t])
    except _BudgetExhausted:
        pass


def _lbfgsb_box(objective, start, lower, upper, max_evals, best: _Incumbent):
    # imported here: scipy.optimize takes most of the package's import time
    from scipy.optimize import minimize

    def negated(x):
        val = float(objective(np.asarray(x, dtype=float)))
        best.evaluations += 1
        if np.isfinite(val) and val > best.value:
            best.point, best.value = np.array(x, dtype=float), val
        return -val

    minimize(
        negated,
        start,
        method="L-BFGS-B",
        jac="3-point",
        bounds=list(zip(lower, upper)),
        options={
            "maxcor": 6,
            "ftol": _FTOL,
            "maxfun": max(1, max_evals - best.evaluations),
            "finite_diff_rel_step": _FD_STEP,
        },
    )


def optimize_box(objective, start, lower, upper, cfg: OptimizerConfig | None = None):
    """Maximize ``objective`` over the box [lower, upper] from ``start``.

    Returns ``(argmax, value, evaluations)`` for the best point evaluated,
    which never scores below ``objective(start)`` and always lies inside
    the box. Non-finite objective values during the search are treated as
    worst-possible; a non-finite value at the start is an error.
    """
    cfg = cfg or OptimizerConfig()
    start, lower, upper = _check_box(start, lower, upper)
    max_evals = cfg.max_evaluations or 500 * start.size
    f0 = float(objective(start))
    if not np.isfinite(f0):
        raise InvalidArgumentError(f"objective is not finite at the start: {f0}")
    best = _Incumbent(point=start.copy(), value=f0, evaluations=1)
    if cfg.algorithm == "simplex-box":
        _nelder_mead_box(objective, start, lower, upper, max_evals, best)
    else:
        _lbfgsb_box(objective, start, lower, upper, max_evals, best)
    return best.point, best.value, best.evaluations


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
    """
    method = DepthMethod(method)
    cfg = cfg or OptimizerConfig()
    if objects.kind != "corr" or objects.items[0].p < 2:
        raise InvalidArgumentError(
            "out-of-sample estimation supports correlation matrices with p >= 2 only"
        )
    if dm is None:
        dm = distance_matrix(objects)
    data = np.array([cholesky_encode(o) for o in objects.items])
    model = pca_fit(data, tsh)
    # the sample-side work of the depth is shared by every evaluation
    state = sample_state(dm, method)
    values = depth_values(state, method)
    ranked = np.argsort(-values, kind="stable")
    starts = [int(t) for t in ranked[: min(cfg.starts, len(ranked))]]
    failure_score = method.value_range[0] - 1.0

    def objective(w):
        vec = pca_decode(model, w)
        try:
            obj = cholesky_decode(vec)
        except (DegenerateDecodeError, NotPositiveDefiniteError, InvalidArgumentError):
            return failure_score
        q = query_distances(obj, objects)
        return depth_of_query(q, state, method)

    best_run = None  # (value, rank, point, evals, sample_index)
    total_evals = 0
    for rank, sample_index in enumerate(starts):
        w0 = pca_encode(model, data[sample_index])
        lower = w0 - cfg.half_width
        upper = w0 + cfg.half_width
        point, value, evals = optimize_box(objective, w0, lower, upper, cfg)
        total_evals += evals
        if best_run is None or value > best_run[0]:
            best_run = (value, rank, point, evals, sample_index)
    value, rank, point, _, sample_index = best_run
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
