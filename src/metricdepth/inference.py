"""Depth-based two-group permutation inference.

The test statistic is the metric distance between the deepest in-sample
objects of the two label groups, each computed within its own group's
distance sub-matrix. The null distribution is simulated by group-size
preserving label permutations; permutations act on indices of the pooled
distance matrix only. That matrix is the object set's own: the set
computes it on the first test, and every later test on the set, for any
method or relabeling, reuses it (see ``spaces.ObjectSet``). Permutation b
is drawn from the child stream (seed, PERMUTATION_TAG, b), and a test
derives all of its streams in one pass (``seeding.child_permutations``).

The observed labels and every permutation are scored in one call, and
every group of every draw gets its deepest member from one entry,
``depths._group_picks``, whatever the method; each pick is bitwise the
group-by-group one. For MOD2, MLD and MSD a term of a (query, pair) depends
only on the three distances among them, so the pooled sample fixes every
group's terms: they are built once, n C(n, 2) of them, and each member's
depth within its group gathers its pooled terms at the group's pairs.
Scoring each draw afresh would build about a quarter of that per draw (two
groups of n/2), so pooling costs more for one draw, as
``statistic_from_dm`` has, and breaks even at about four. MOD3 and MHD
stack the groups' distance sub-matrices, a chunk of draws at a time: MOD3
runs one elimination over the stack, which scores few objects of each
group in full, and MHD counts every group's anchor-pair probabilities at
once.

The p-value follows the plain convention
``#{ t_observed <= t_permuted } / B`` (ties count toward the numerator),
which can return 0; ``corrected=True`` switches to the finite-sample
``(1 + #) / (1 + B)`` variant.

Relabelings that keep a majority of each original group in each permuted
group give statistics close to the observed one. The p-value therefore
depends on how strongly the depth's deepest object reacts to a minority of
the other group: a plain p-value of 0 is possible but not promised, even for
well-separated groups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import check_count, sized_distance_array
from .depths import DepthMethod, _group_picks
from .errors import InsufficientSampleError, InvalidArgumentError
from .seeding import (
    PERMUTATION_TAG,
    SUBTEST_TAG,
    SWAP_TAG,
    check_seed,
    child_permutations,
    child_rng,
    child_seed,
)
from .spaces import ObjectSet, distance_matrix


@dataclass(frozen=True)
class PermutationReport:
    """Observed statistic, permuted draws, and the resulting p-value."""

    t_observed: float
    t_permuted: np.ndarray
    p_value: float
    method: DepthMethod
    B: int
    seed: int
    corrected: bool = False

    def to_dict(self) -> dict:
        return {
            "t_observed": float(self.t_observed),
            "t_permuted": [float(x) for x in self.t_permuted],
            "p_value": float(self.p_value),
            "method": self.method.value,
            "B": int(self.B),
            "seed": int(self.seed),
            "corrected": bool(self.corrected),
        }


@dataclass(frozen=True)
class SwapExperimentReport:
    """Mean p-values per method across repeated random label swaps."""

    k: int
    repeats: int
    B: int
    seed: int
    methods: tuple
    p_values: dict  # method name -> list of per-repeat p-values

    def mean_p_value(self, method: str) -> float:
        return float(np.mean(self.p_values[method]))

    def to_dict(self) -> dict:
        return {
            "k": int(self.k),
            "repeats": int(self.repeats),
            "B": int(self.B),
            "seed": int(self.seed),
            "methods": list(self.methods),
            "per_method": {
                m: {"mean_p_value": self.mean_p_value(m),
                    "p_values": [float(x) for x in self.p_values[m]]}
                for m in self.methods
            },
        }


def _two_groups(labels) -> tuple[np.ndarray, list]:
    if labels is None:
        raise InvalidArgumentError("need two-group labels, got None")
    labels = np.asarray(labels)
    names = sorted(set(labels.tolist()))
    if len(names) != 2:
        raise InvalidArgumentError(f"need exactly two labels, got {names}")
    return labels, names


def _check_group_sizes(labels, names, *methods: DepthMethod) -> None:
    for method in methods:
        for name in names:
            size = int(np.count_nonzero(labels == name))
            if size < method.min_sample:
                raise InsufficientSampleError(
                    f"group {name!r} has {size} objects; {method.value} needs {method.min_sample}"
                )


def _check_draws(B, seed) -> None:
    # at most 2**32 draws, as ``child_permutations`` builds them
    check_count(B, "the number of permutations B", 1, 2**32)
    check_seed(seed)


def _finite_distances(dm, n: int) -> np.ndarray:
    """The entries of ``dm``, refused unless they are (n, n) and finite: a
    NaN would decide picks by how it compares. A raw array is otherwise
    taken as it is."""
    v = sized_distance_array(dm, n)
    if not np.isfinite(v).all():
        raise InvalidArgumentError("distance matrix entries must be finite")
    return v


def statistic_from_dm(dm, labels, method: DepthMethod) -> float:
    """Distance between the two groups' deepest in-sample objects.

    ``dm`` must be n x n, for the n labels, with finite entries.
    """
    method = DepthMethod(method)
    labels, names = _two_groups(labels)
    v = _finite_distances(dm, labels.size)
    _check_group_sizes(labels, names, method)
    return float(_statistics(v, labels[None], names, method)[0])


def _statistics(v, draws, names, method: DepthMethod) -> np.ndarray:
    """:func:`statistic_from_dm` of every row of the checked (draws, n)
    labels ``draws``, which share their group sizes.

    Every group of every draw gets its deepest member from one call of
    ``depths._group_picks``, whatever the method.
    """
    # one row per draw: the group's pooled indices, increasing
    groups = [np.nonzero(draws == name)[1].reshape(len(draws), -1) for name in names]
    rows = np.arange(len(draws))
    first, second = (group[rows, pick]
                     for group, pick in zip(groups, _group_picks(v, groups, method)))
    return v[first, second]


def permutation_test(objects: ObjectSet, method: DepthMethod, B: int, seed: int,
                     corrected: bool = False, labels=None, dm=None) -> PermutationReport:
    """Two-group permutation test of the deepest-distance statistic.

    Labels are permuted uniformly at random ``B`` times (group sizes
    preserved); permutation b draws from the child stream (seed,
    PERMUTATION_TAG, b), so the report is independent of evaluation order.
    The ``B`` streams are derived in one pass (``seeding.child_permutations``),
    bitwise those of one ``child_rng`` per draw. ``labels`` overrides the
    object set's own labels. ``dm`` is used in place of the set's distance
    matrix, as given; it must be n x n, for the n labels, with finite
    entries. Without it, the set's own matrix is used, which the set
    computes once however many tests run on it.

    All ``B`` permutations are drawn first, and the observed labels and
    every draw are scored in one call, which picks every group's deepest
    object for any method. MOD2, MLD and MSD build their pair terms once
    for the pooled sample, n C(n, 2) of them whatever ``B`` is, and gather
    each draw's group depths from them; MOD3 and MHD score the groups of a
    chunk of draws as one stack of sub-matrices (see the module notes).
    """
    method = DepthMethod(method)
    _check_draws(B, seed)
    if labels is None:
        labels = objects.labels
    if labels is None:
        raise InvalidArgumentError("object set carries no labels")
    labels, names = _two_groups(labels)
    if len(labels) != len(objects):
        raise InvalidArgumentError("labels length must match the object set")
    _check_group_sizes(labels, names, method)
    if dm is None:
        dm = distance_matrix(objects)
    n = len(labels)
    v = _finite_distances(dm, n)
    draws = np.concatenate([labels[None], labels[child_permutations(seed, PERMUTATION_TAG, B, n)]])
    t = _statistics(v, draws, names, method)
    t_obs, t_perm = float(t[0]), t[1:]
    hits = int(np.count_nonzero(t_obs <= t_perm))
    p = (1 + hits) / (1 + B) if corrected else hits / B
    return PermutationReport(t_observed=t_obs, t_permuted=t_perm, p_value=float(p),
                             method=method, B=B, seed=seed, corrected=corrected)


def label_swap_experiment(objects: ObjectSet, methods, k: int, repeats: int, B: int,
                          seed: int, corrected: bool = False) -> SwapExperimentReport:
    """Contaminate labels by swapping k per group, then re-test, repeatedly.

    Per repeat, k objects drawn uniformly from each group exchange labels
    and the permutation test runs for every method on the contaminated
    labels (group sizes are preserved by construction). Reports per-repeat
    and mean p-values per method.
    """
    if objects.labels is None:
        raise InvalidArgumentError("object set carries no labels")
    check_count(repeats, "repeats")
    methods = [DepthMethod(m) for m in methods]
    labels, names = _two_groups(objects.labels)
    idx_a = np.nonzero(labels == names[0])[0]
    idx_b = np.nonzero(labels == names[1])[0]
    check_count(k, "k", 0, min(idx_a.size, idx_b.size))
    # what permutation_test refuses, refused before the first test builds
    # the distance matrix (swaps keep the group sizes)
    _check_draws(B, seed)
    _check_group_sizes(labels, names, *methods)
    p_values = {m.value: [] for m in methods}
    for rep in range(repeats):
        rng = child_rng(seed, SWAP_TAG, rep)
        swapped = labels.copy()
        if k > 0:
            from_a = rng.choice(idx_a, size=k, replace=False)
            from_b = rng.choice(idx_b, size=k, replace=False)
            swapped[from_a] = names[1]
            swapped[from_b] = names[0]
        for m_index, method in enumerate(methods):
            sub_seed = child_seed(seed, SUBTEST_TAG, rep, m_index)
            report = permutation_test(objects, method, B, sub_seed,
                                      corrected=corrected, labels=swapped)
            p_values[method.value].append(report.p_value)
    return SwapExperimentReport(k=k, repeats=repeats, B=B, seed=seed,
                                methods=tuple(m.value for m in methods),
                                p_values=p_values)
