"""Data generators and replicated location-estimation experiments.

Two synthetic spaces are covered:

* correlation matrices: S = U D U' with Haar-uniform U and log-normal
  diagonal D, rescaled to unit diagonal; the true center is the identity.
  Outliers (probability ``eps``) swap the diagonal's log-mean from
  ``nu_bulk`` to ``nu_out``, inflating the spread but keeping the center.
* unit hypersphere: normalized Gaussian vectors with mean ``lambda * 1``;
  the true center is sign(lambda_bulk) * (1/sqrt(p)) * 1. Outliers use
  ``lambda_out`` (opposite side for the default -1).

Experiments replicate generation -> distance matrix -> deepest-object
estimation, recording the metric error to the true center and the
estimator wall time (distance-matrix construction excluded, as every
estimator shares it). Replicate r draws all randomness from a child stream
of (seed, r), so reports do not depend on scheduling.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .deepest import OptimizerConfig, _check_tsh, deepest_in_sample, deepest_out_of_sample
from .depths import DepthMethod
from .errors import InvalidArgumentError
from .seeding import REPLICATE_TAG, child_rng
from .spaces import (
    CorrelationMatrix,
    Histogram,
    ObjectSet,
    UnitVector,
    distance_matrix,
    query_distances,
)

_SAMPLES_PER_HIST = 100  # Gaussian draws binned into each histogram


@dataclass(frozen=True)
class CorrSimConfig:
    p: int
    n: int
    eps: float
    reps: int
    seed: int
    nu_bulk: float = 0.0
    nu_out: float = 3.0

    def __post_init__(self):
        if self.p < 2 or self.n < 4 or self.reps < 1:
            raise InvalidArgumentError("need p >= 2, n >= 4, reps >= 1")
        if not 0.0 <= self.eps < 1.0:
            raise InvalidArgumentError("eps must be in [0, 1)")


@dataclass(frozen=True)
class SphereSimConfig:
    p: int
    n: int
    eps: float
    reps: int
    seed: int
    lambda_bulk: float = 5.0
    lambda_out: float = -1.0

    def __post_init__(self):
        if self.p < 2 or self.n < 4 or self.reps < 1:
            raise InvalidArgumentError("need p >= 2, n >= 4, reps >= 1")
        if not 0.0 <= self.eps < 1.0:
            raise InvalidArgumentError("eps must be in [0, 1)")
        if self.lambda_bulk == 0.0:
            raise InvalidArgumentError("lambda_bulk must be nonzero")


def random_orthogonal(p: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform orthogonal matrix via sign-corrected QR of a Gaussian."""
    if p < 1:
        raise InvalidArgumentError("dimension must be positive")
    z = rng.standard_normal((p, p))
    q, r = np.linalg.qr(z)
    signs = np.sign(np.diagonal(r))
    signs[signs == 0] = 1.0
    return q * signs


def _one_correlation(p: int, nu: float, rng: np.random.Generator) -> CorrelationMatrix:
    log_means = np.full(p, -nu)
    log_means[0] = nu
    diag = np.exp(rng.normal(log_means, 1.0))
    u = random_orthogonal(p, rng)
    s = (u * diag) @ u.T
    d = np.diagonal(s)
    x = s / np.sqrt(np.outer(d, d))
    x = 0.5 * (x + x.T)
    np.fill_diagonal(x, 1.0)
    return CorrelationMatrix(x)


def gen_correlation_sample(cfg: CorrSimConfig, rng: np.random.Generator):
    """Sample of random correlation matrices; true center is the identity."""
    items = []
    for _ in range(cfg.n):
        nu = cfg.nu_out if rng.random() < cfg.eps else cfg.nu_bulk
        items.append(_one_correlation(cfg.p, nu, rng))
    return ObjectSet(tuple(items)), CorrelationMatrix(np.eye(cfg.p))


def gen_sphere_sample(cfg: SphereSimConfig, rng: np.random.Generator):
    """Sample of normalized Gaussian unit vectors; center on the diagonal."""
    items = []
    for _ in range(cfg.n):
        lam = cfg.lambda_out if rng.random() < cfg.eps else cfg.lambda_bulk
        norm = 0.0
        while norm == 0.0:
            z = rng.normal(lam, 1.0, cfg.p)
            norm = float(np.linalg.norm(z))
        items.append(UnitVector(z / norm))
    center = UnitVector(np.sign(cfg.lambda_bulk) * np.full(cfg.p, 1.0 / np.sqrt(cfg.p)))
    return ObjectSet(tuple(items)), center


def gen_histogram_groups(n1: int, n2: int, shift: float, bins: int, seed: int) -> ObjectSet:
    """Two labeled groups of histograms of binned Gaussian draws.

    Each histogram bins 100 draws: N(0, 1) in group "A", N(shift, 1) in "B";
    all histograms share equispaced edges over a range covering both.
    """
    if n1 < 2 or n2 < 2 or bins < 1:
        raise InvalidArgumentError("need n1, n2 >= 2, bins >= 1")
    lo = min(0.0, shift) - 4.0
    hi = max(0.0, shift) + 4.0
    edges = np.linspace(lo, hi, bins + 1)
    rng = child_rng(seed, REPLICATE_TAG)
    items = []
    labels = []
    for label, count, mean in (("A", n1, 0.0), ("B", n2, shift)):
        for _ in range(count):
            draws = np.clip(rng.normal(mean, 1.0, _SAMPLES_PER_HIST), lo, hi - 1e-9)
            counts, _ = np.histogram(draws, bins=edges)
            items.append(Histogram(edges, counts / counts.sum()))
            labels.append(label)
    return ObjectSet(tuple(items), tuple(labels))


@dataclass(frozen=True)
class ExperimentReport:
    """Replicated estimation errors and timings, per method."""

    space: str
    estimator: str
    config: dict
    methods: tuple
    errors: dict  # method name -> list of per-replicate errors
    elapsed: dict  # method name -> list of per-replicate estimator seconds
    baseline_errors: list | None = None

    def mean_error(self, method: str) -> float:
        return float(np.mean(self.errors[method]))

    def sd_error(self, method: str) -> float:
        vals = self.errors[method]
        return float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0

    def mean_elapsed(self, method: str) -> float:
        return float(np.mean(self.elapsed[method]))

    def to_dict(self, with_timing: bool = True) -> dict:
        out = {
            "space": self.space,
            "estimator": self.estimator,
            "config": self.config,
            "methods": list(self.methods),
            "per_method": {
                m: {
                    "mean_error": self.mean_error(m),
                    "sd_error": self.sd_error(m),
                    "mean_elapsed_seconds": self.mean_elapsed(m) if with_timing else None,
                    "errors": [float(x) for x in self.errors[m]],
                }
                for m in self.methods
            },
        }
        if self.baseline_errors is not None:
            out["baseline"] = {
                "mean_error": float(np.mean(self.baseline_errors)),
                "sd_error": float(np.std(self.baseline_errors, ddof=1))
                if len(self.baseline_errors) > 1 else 0.0,
                "errors": [float(x) for x in self.baseline_errors],
            }
        return out

    def tidy_rows(self):
        """One (space, estimator, method, replicate, error, elapsed) row per cell."""
        for m in self.methods:
            for rep, (err, sec) in enumerate(zip(self.errors[m], self.elapsed[m])):
                yield {"space": self.space, "estimator": self.estimator, "method": m,
                       "replicate": rep, "error": float(err), "elapsed_seconds": float(sec)}
        if self.baseline_errors is not None:
            for rep, err in enumerate(self.baseline_errors):
                yield {"space": self.space, "estimator": "random-pick", "method": "RANDOM",
                       "replicate": rep, "error": float(err), "elapsed_seconds": 0.0}

    def write_tidy_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(
                fh, fieldnames=["space", "estimator", "method", "replicate",
                                "error", "elapsed_seconds"])
            writer.writeheader()
            for row in self.tidy_rows():
                writer.writerow(row)


def _center_error(estimate, center) -> float:
    return float(query_distances(estimate, ObjectSet((center,)))[0])


def run_location_experiment(space: str, cfg, methods, estimator: str = "in-sample",
                            optimizer: OptimizerConfig | None = None, tsh: float = 0.9,
                            baseline: bool = False) -> ExperimentReport:
    """Replicated deepest-object estimation against the known true center.

    Per replicate: generate a sample, form its distance matrix once, run the
    chosen estimator for every method, and record the metric error to the
    true center plus the estimator's wall time. ``baseline=True`` adds a
    random-pick column (uniform sample index per replicate). Out-of-sample
    estimation is available for the correlation space only.
    """
    if space not in ("corr", "sphere"):
        raise InvalidArgumentError("space must be 'corr' or 'sphere'")
    if estimator not in ("in-sample", "out-of-sample"):
        raise InvalidArgumentError("estimator must be 'in-sample' or 'out-of-sample'")
    if estimator == "out-of-sample" and space != "corr":
        raise InvalidArgumentError("out-of-sample estimation supports the correlation space only")
    if estimator == "out-of-sample":
        _check_tsh(tsh)
    methods = [DepthMethod(m) for m in methods]
    names = [m.value for m in methods]
    errors = {m: [] for m in names}
    elapsed = {m: [] for m in names}
    baseline_errors = [] if baseline else None
    optimizer = optimizer or OptimizerConfig()
    for rep in range(cfg.reps):
        rng = child_rng(cfg.seed, REPLICATE_TAG, rep)
        if space == "corr":
            objects, center = gen_correlation_sample(cfg, rng)
        else:
            objects, center = gen_sphere_sample(cfg, rng)
        dm = distance_matrix(objects) if methods else None
        for method in methods:
            t0 = time.perf_counter()
            if estimator == "in-sample":
                res = deepest_in_sample(dm, method)
                estimate = objects.items[res.index]
            else:
                res = deepest_out_of_sample(objects, method, tsh=tsh, cfg=optimizer, dm=dm)
                estimate = res.object if res.object is not None else objects.items[res.index]
            seconds = time.perf_counter() - t0
            errors[method.value].append(_center_error(estimate, center))
            elapsed[method.value].append(seconds)
        if baseline:
            pick = int(rng.integers(0, cfg.n))
            baseline_errors.append(_center_error(objects.items[pick], center))
    config = {k: getattr(cfg, k) for k in cfg.__dataclass_fields__}
    if estimator == "out-of-sample":
        config["tsh"] = tsh
        config["optimizer"] = {k: getattr(optimizer, k) for k in optimizer.__dataclass_fields__}
    return ExperimentReport(space=space, estimator=estimator, config=config,
                            methods=tuple(names), errors=errors, elapsed=elapsed,
                            baseline_errors=baseline_errors)
