"""Deterministic child-stream derivation for replicated experiments.

Every replicated computation (simulation replicates, permutation draws,
label swaps) derives an independent generator from ``(seed, tag, index...)``
so results never depend on execution order or parallel scheduling.

A permutation test still draws permutation b from the child stream
(seed, PERMUTATION_TAG, b), but :func:`child_permutations` derives all of a
test's streams in one pass: it rebuilds numpy's ``SeedSequence`` and
``PCG64`` seeding for every b at once, where :func:`child_rng` builds a
``SeedSequence``, a ``PCG64`` and a ``Generator`` per stream. numpy fixes
these streams under its RNG policy (NEP 19), so the rebuilt ones are
bitwise the same, as the tests check.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError

# Purpose tags keep streams for different uses disjoint under one user seed.
REPLICATE_TAG = 1
PERMUTATION_TAG = 2
SWAP_TAG = 3
SUBTEST_TAG = 4
SUBSAMPLE_TAG = 5

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidArgumentError(f"seed must be a nonnegative integer, got {seed!r}")
    return int(seed)


def child_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator for the child stream identified by (seed, *key)."""
    entropy = [check_seed(seed), *(int(k) for k in key)]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def child_seed(seed: int, *key: int) -> int:
    """A derived integer seed, for APIs that take seeds rather than rngs."""
    return int(child_rng(seed, *key).integers(0, 2**63))


def child_permutations(seed: int, tag: int, count: int, n: int) -> np.ndarray:
    """The (count, n) array whose row b is ``child_rng(seed, tag, b).permutation(n)``,
    bitwise.

    Every stream's seeding runs in one vectorized pass over b; the rows are
    then drawn from one ``Generator`` whose ``PCG64`` state is set to each
    stream's in turn. ``count`` is at most 2**32, so that every b is one
    entropy word, as this pass assumes.
    """
    seed = check_seed(seed)
    if not isinstance(count, (int, np.integer)) or not 0 <= count <= 2**32:
        raise InvalidArgumentError(f"stream count must be an integer in [0, 2**32], got {count!r}")
    # column b holds the entropy words of (seed, tag, b), then zeros up to
    # the pool size: numpy hashes 0 into a pool word that has no entropy word
    key = _uint32_words(seed) + _uint32_words(int(tag))
    entropy = np.zeros((max(len(key) + 1, _POOL_SIZE), count), dtype=np.uint64)
    entropy[:len(key)] = np.array(key, dtype=np.uint64)[:, None]
    entropy[len(key)] = np.arange(count)
    generator = np.random.Generator(np.random.PCG64(0))
    # ``permutation(n)`` shuffles a fresh arange(n); each row is shuffled
    # in place instead
    out = np.tile(np.arange(n), (count, 1))
    for row, *words in zip(out, *_generate_state(entropy).tolist()):
        generator.bit_generator.state = _pcg64_state(*words)
        generator.shuffle(row)
    return out


def _uint32_words(x: int) -> list:
    """The entropy words numpy's ``SeedSequence`` takes from the integer
    ``x``: its little-endian 32-bit words, and [0] for 0."""
    if x < 0:
        raise InvalidArgumentError(f"stream key must be nonnegative, got {x!r}")
    words = [x & _MASK32]
    while x := x >> 32:
        words.append(x & _MASK32)
    return words


def _hashmix(values: np.ndarray, hash_const: int, mult: int) -> tuple[np.ndarray, int]:
    """numpy's ``hashmix`` called on the rows of ``values`` in turn: row i is
    xored with the i-th hash constant and multiplied by the next, each
    constant being the last times ``mult``. Returns the hashed rows and the
    constant the next call starts from."""
    consts = [hash_const]
    for _ in range(len(values)):
        consts.append(consts[-1] * mult & _MASK32)
    c = np.array(consts, dtype=np.uint64)[:, None]
    values = (values ^ c[:-1]) * c[1:] & _MASK32
    return values ^ (values >> 16), consts[-1]


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """numpy's ``mix`` of the words ``x`` and ``y``, elementwise."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def _generate_state(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(words).generate_state(4, np.uint64)`` for the entropy
    words of every column of ``entropy`` (at least the pool size of rows,
    zero-padded): a (4, count) uint64 array.

    Follows numpy's ``mix_entropy`` and ``generate_state`` call for call;
    the calls that do not depend on each other's results run as one. The
    uint32 arithmetic runs on uint64 arrays masked to 32 bits, where a
    product of two words cannot overflow and a wrapped difference keeps its
    low 32 bits.
    """
    pool, hash_const = _hashmix(entropy[:_POOL_SIZE], _INIT_A, _MULT_A)
    # every word hashed into the others; a source word stays fixed while
    # it is mixed into the other three
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        hashed, hash_const = _hashmix(pool[[src] * len(dst)], hash_const, _MULT_A)
        pool[dst] = _mix(pool[dst], hashed)
    # entropy beyond the pool size (a seed of 2**64 or more)
    for word in entropy[_POOL_SIZE:]:
        hashed, hash_const = _hashmix(np.tile(word, (_POOL_SIZE, 1)), hash_const, _MULT_A)
        pool = _mix(pool, hashed)
    state, _ = _hashmix(np.tile(pool, (2, 1)), _INIT_B, _MULT_B)
    # consecutive uint32 words read as little-endian uint64s
    return state[0::2] | state[1::2] << 32


def _pcg64_state(seed_high: int, seed_low: int, inc_high: int, inc_low: int) -> dict:
    """The ``PCG64.state`` that ``pcg64_set_seed`` makes of four state words:
    the stream's increment is the odd 2 * inc + 1, and its state is two LCG
    steps from 0, the seed added after the first."""
    inc = ((inc_high << 64 | inc_low) << 1 | 1) & _MASK128
    state = ((inc + (seed_high << 64 | seed_low)) * _PCG_MULT + inc) & _MASK128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}
