"""Reproducible Gaussian streams.

Every stochastic routine derives its noise from a counter-based Philox
generator keyed by ``(seed, domain, *context)``. The domain constant keeps
streams of different experiment kinds disjoint, the context identifies the
replication (and, where relevant, the level), and positions inside one
stream follow a fixed step-major layout. Each stream fills one block in
one call: a path, a replication or a level-pair sample draws its whole
(steps, M, d_bar) array (fine steps for a level pair), which equals
drawing it step by step, bit for bit. Two runs with the same key consume
bit-identical variates regardless of scheduling, which is what makes the
fine/coarse couplings and the cost accounting reproducible.

The Philox key of a stream equals the one numpy derives from
``SeedSequence(entropy=seed, spawn_key=key)`` with ``generate_state(2,
np.uint64)``; ``tests/test_rng.py`` checks this against numpy itself. The
entropy mixing is reimplemented here because building a ``SeedSequence``
per sample costs more than simulating a small sample. The last key word
(the sample or replication index) is mixed for 256 consecutive indices in
one array pass, and the keys of the 64 latest such blocks are cached.

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


def _hasher(const: int, mult: int):
    """numpy's ``hashmix``, carrying its running hash constant from ``const``.

    It takes and returns 32-bit words as Python ints or uint64 arrays; every
    product of two 32-bit words fits in uint64 and is masked back to 32
    bits. Nothing is updated in place, so an array hashed twice stays intact.
    """
    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> _XSHIFT

    return hashmix


def _mix(x, y):
    """numpy's ``mix`` of two 32-bit words, on Python ints or uint64 arrays."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> _XSHIFT


@lru_cache(maxsize=_CACHED_BLOCKS)
def _key_block(seed: int, prefix: tuple[int, ...], block: int) -> np.ndarray:
    """Philox keys, shape (_BLOCK, 2), for last key words ``block * _BLOCK + j``.

    This is numpy's ``mix_entropy`` and ``generate_state(2, np.uint64)``
    step for step, with the last key word as the block's indices. With a
    spawn key, numpy pads the run entropy to the pool size, so a 64-bit
    seed always fills the pool as ``(low, high, 0, 0)``.
    """
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in (seed & _MASK32, seed >> 32, 0, 0)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    last = np.arange(block * _BLOCK, (block + 1) * _BLOCK, dtype=np.uint64)
    for word in (*(int(w) & _MASK32 for w in prefix), last):
        pool = [_mix(p, hashmix(word)) for p in pool]
    # generate_state: hash each pool word afresh, pair them little-endian
    hashmix = _hasher(_INIT_B, _MULT_B)
    w = [hashmix(p) for p in pool]
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
