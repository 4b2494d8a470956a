"""Reproducible Gaussian streams.

Every stochastic routine derives its noise from a counter-based Philox
generator keyed by ``(seed, domain, *context)``. The domain constant keeps
streams of different experiment kinds disjoint, the context identifies the
replication (and, where relevant, the level), and positions inside one
stream follow a fixed step-major layout. Two runs with the same key consume
bit-identical variates regardless of scheduling, which is what makes the
fine/coarse couplings and the cost accounting reproducible.

The Philox key of a stream equals the one numpy derives from
``SeedSequence(entropy=seed, spawn_key=key)`` with ``generate_state(2,
np.uint64)``; ``tests/test_rng.py`` checks this against numpy itself. The
entropy mixing is reimplemented here because building a ``SeedSequence``
per sample costs more than simulating a small sample. The pool after every
key word but the last is cached, and the last word (the sample or
replication index) is mixed for 256 consecutive indices in one array pass.

``stream`` resets and returns one module-level generator, so a returned
generator is valid only until the next ``stream`` call: draw what a stream
provides before opening the next one. Sampling is single-threaded by
design; a thread pool over samples was slower than one thread (2.6 s
against 1.8 s on the shipped ``coupled_variance`` config).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ConfigurationError

# stream domains; values are arbitrary but frozen (changing one changes
# every downstream result for a given seed)
DOMAIN_PATH = 1
DOMAIN_STRONG_ERROR = 2
DOMAIN_SMALL_NOISE = 3
DOMAIN_LEVEL_PAIR = 4
DOMAIN_LEVEL_ZERO = 5
DOMAIN_CHAOS = 6
DOMAIN_PSI_VARIANCE = 7

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

# numpy's SeedSequence mixing constants (pool size 4)
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16

#: last-key-word indices mixed per array pass, and the passes kept
_BLOCK = 256
_CACHED_BLOCKS = 64
#: Philox's counter and buffer after a reset
_ZEROS = (0, 0, 0, 0)


def _hash_consts(init: int, mult: int, first: int) -> np.ndarray:
    """The hash constants before hashes ``first .. first + 4`` of one pass, as a column."""
    return np.array([[init * pow(mult, first + i, 1 << 32) & _MASK32]
                     for i in range(_POOL_SIZE + 1)], dtype=np.uint64)


#: the constants of generate_state's pass, which always starts afresh
_OUTPUT_CONSTS = _hash_consts(_INIT_B, _MULT_B, 0)


def _mix(x, y):
    """numpy's ``mix`` of two 32-bit words, on Python ints or uint64 arrays."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> _XSHIFT


@lru_cache(maxsize=256)
def _prefix_pool(seed: int, prefix: tuple[int, ...]) -> tuple[int, ...]:
    """The mixed pool after the seed and every key word but the last.

    With a spawn key, numpy pads the run entropy to the pool size, so a
    64-bit seed always fills the pool as ``(low, high, 0, 0)``.
    """
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ value >> _XSHIFT

    pool = [hashmix(w) for w in (seed & _MASK32, seed >> 32, 0, 0)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in prefix:
        pool = [_mix(p, hashmix(int(word) & _MASK32)) for p in pool]
    return tuple(pool)


@lru_cache(maxsize=_CACHED_BLOCKS)
def _key_block(seed: int, prefix: tuple[int, ...], block: int) -> np.ndarray:
    """Philox keys, shape (_BLOCK, 2), for last key words ``block * _BLOCK + j``.

    Rows of the (4, _BLOCK) arrays are the four pool words; every product
    of two 32-bit words fits in uint64 and is masked back to 32 bits.
    """
    hashes = _POOL_SIZE * (_POOL_SIZE + len(prefix))  # made before the last word
    a = _hash_consts(_INIT_A, _MULT_A, hashes)
    pool = np.array(_prefix_pool(seed, prefix), dtype=np.uint64)[:, None]
    last = np.arange(block * _BLOCK, (block + 1) * _BLOCK, dtype=np.uint64)
    h = (last ^ a[:-1]) * a[1:] & _MASK32
    pool = _mix(pool, h ^ h >> _XSHIFT)
    # generate_state(2, np.uint64): hash each pool word, pair them little-endian
    w = (pool ^ _OUTPUT_CONSTS[:-1]) * _OUTPUT_CONSTS[1:] & _MASK32
    w ^= w >> _XSHIFT
    keys = np.stack([w[0] | w[1] << 32, w[2] | w[3] << 32], axis=1)
    keys.flags.writeable = False
    return keys


@lru_cache(maxsize=1)
def _shared_generator() -> np.random.Generator:
    """The one generator ``stream`` resets, built on first use (which imports numpy.random)."""
    return np.random.Generator(np.random.Philox(0))


def stream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the Gaussian stream identified by ``(seed, *key)``.

    The same generator object is reset and returned on every call; it is
    valid until the next call.
    """
    if not key:
        raise ConfigurationError("stream needs at least one key word (its domain)")
    block, j = divmod(int(key[-1]) & _MASK32, _BLOCK)
    keys = _key_block(int(seed) & _MASK64, key[:-1], block)
    gen = _shared_generator()
    gen.bit_generator.state = {"bit_generator": "Philox",
                               "state": {"counter": _ZEROS, "key": keys[j]}, "buffer": _ZEROS,
                               "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return gen
