"""Tests for the child streams: ``child_permutations`` against one
``child_rng`` per stream, the independent reference."""

import numpy as np
import pytest

from metricdepth.errors import InvalidArgumentError
from metricdepth.seeding import PERMUTATION_TAG, child_permutations, child_rng

# seeds of one to four entropy words: the largest fill the pool and take
# numpy's extra-entropy loop
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**100 + 12345]
COUNTS = [0, 1, 100, 5000]


def reference(seed, tag, count, n):
    """Row b: a fresh ``child_rng(seed, tag, b)``'s permutation of range(n)."""
    rows = [child_rng(seed, tag, b).permutation(n) for b in range(count)]
    return np.array(rows, dtype=np.int64).reshape(count, n)


@pytest.mark.parametrize("n", [1, 2, 50, 300])
@pytest.mark.parametrize("seed", SEEDS)
def test_rows_are_the_child_streams(seed, n):
    full = reference(seed, PERMUTATION_TAG, max(COUNTS), n)
    for count in COUNTS:
        got = child_permutations(seed, PERMUTATION_TAG, count, n)
        assert got.shape == (count, n)
        assert got.dtype == full.dtype
        assert got.tobytes() == full[:count].tobytes()


@pytest.mark.parametrize("tag", [0, 1, 5, 2**40])
def test_rows_follow_the_tag(tag):
    got = child_permutations(7, tag, 30, 9)
    assert got.tobytes() == reference(7, tag, 30, 9).tobytes()


def test_numpy_integers_taken_as_ints():
    got = child_permutations(np.uint64(2**63 + 1), np.int64(PERMUTATION_TAG), np.int32(20), 6)
    assert got.tobytes() == reference(2**63 + 1, PERMUTATION_TAG, 20, 6).tobytes()


@pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
def test_refuses_what_check_seed_refuses(seed):
    with pytest.raises(InvalidArgumentError, match="seed"):
        child_permutations(seed, PERMUTATION_TAG, 10, 5)


@pytest.mark.parametrize("count", [-1, 2.0, 2**32 + 1, 2**64])
def test_refuses_a_count_out_of_range(count):
    # b = 2**32 would take a second entropy word, which the one-pass
    # seeding does not build: those streams would differ silently
    with pytest.raises(InvalidArgumentError, match="count"):
        child_permutations(3, PERMUTATION_TAG, count, 5)


def test_refuses_a_negative_tag():
    with pytest.raises(InvalidArgumentError, match="nonnegative"):
        child_permutations(3, -2, 10, 5)


def test_seed_and_tag_of_several_words_each():
    # seven entropy words; tier-1 also fails on any numpy overflow warning
    got = child_permutations(2**128 - 1, 2**64 - 1, 50, 4)
    assert got.tobytes() == reference(2**128 - 1, 2**64 - 1, 50, 4).tobytes()
