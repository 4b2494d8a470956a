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
per sample costs more than simulating a small sample. ``keys`` mixes a
range of indices in one array pass; seeds outside ``[0, 2**64)`` and key
words outside ``[0, 2**32)`` are refused.

``stream`` returns a new generator. ``streams`` yields a family of them,
one per sample or replication, as one generator reset to each in turn,
which is cheaper than building a generator per stream.
Sampling is single-threaded by design; a thread pool over samples was
slower than one thread (2.6 s against 1.8 s on the shipped
``coupled_variance`` config).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .model import integer

# stream domains; values are arbitrary but frozen (changing one changes
# every downstream result for a given seed)
DOMAIN_PATH = 1
DOMAIN_STRONG_ERROR = 2
DOMAIN_SMALL_NOISE = 3
DOMAIN_LEVEL_PAIR = 4
DOMAIN_LEVEL_ZERO = 5
DOMAIN_CHAOS = 6
DOMAIN_PSI_VARIANCE = 7

_MASK32 = (1 << 32) - 1
#: the streams of one family: its last key word, a sample or replication index, is below it
MAX_STREAMS = 1 << 32
#: the keys ``streams`` derives in one pass
_KEY_BLOCK = 4096

# numpy's SeedSequence mixing constants (pool size 4)
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16


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


def _key_range(seed: int, key: tuple, count: int) -> tuple[int, list[int], int]:
    """The seed, the leading key words and the first last word of a range of
    ``count`` streams, each checked: a ``ConfigurationError`` unless the seed
    lies in [0, 2**64), every word in [0, 2**32) and the range below 2**32."""
    if not key:
        raise ConfigurationError("a stream needs at least one key word (its domain)")
    seed = integer(seed, 0, "seed", 2**64 - 1)
    *prefix, first = (integer(w, 0, "key word", _MASK32) for w in key)
    if not 0 <= count <= MAX_STREAMS - first:
        raise ConfigurationError(f"{count} key words from {first} leave [0, 2**32)")
    return seed, prefix, first


def keys(seed: int, *key: int, count: int) -> np.ndarray:
    """Philox keys, shape (count, 2), of the streams ``(seed, *key[:-1], key[-1] + j)``.

    This is numpy's ``mix_entropy`` and ``generate_state(2, np.uint64)`` step
    for step, with the last key word an array over the range. With a spawn
    key, numpy pads a 64-bit seed to the pool as ``(low, high, 0, 0)``.
    """
    seed, prefix, first = _key_range(seed, key, count)
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in (seed & _MASK32, seed >> 32, 0, 0)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in (*prefix, np.arange(first, first + count, dtype=np.uint64)):
        pool = [_mix(p, hashmix(word)) for p in pool]
    # generate_state: hash each pool word afresh, pair them little-endian
    hashmix = _hasher(_INIT_B, _MULT_B)
    w = [hashmix(p) for p in pool]
    return np.stack([w[0] | w[1] << 32, w[2] | w[3] << 32], axis=1)


def stream(seed: int, *key: int) -> np.random.Generator:
    """A new generator at the start of the stream ``(seed, *key)``."""
    return np.random.Generator(np.random.Philox(key=keys(seed, *key, count=1)[0]))


def streams(seed: int, *key: int, count: int):
    """Yield one ``stream`` generator reset to the start of each stream
    ``(seed, *key[:-1], key[-1] + j)``, j < ``count``, in turn.

    The whole range is checked at the call; its keys are derived
    ``_KEY_BLOCK`` at a time as the streams are asked for, so memory does
    not grow with ``count``.
    """
    return _reset_each(*_key_range(seed, key, count), count)


def _reset_each(seed: int, prefix: list[int], first: int, count: int):
    """The generator behind ``streams``, over a range ``_key_range`` has checked."""
    zeros = (0, 0, 0, 0)  # Philox's counter and buffer after a reset
    gen = stream(seed, *prefix, first)
    end = first + count
    while first < end:
        stop = min(end, first - first % _KEY_BLOCK + _KEY_BLOCK)  # blocks end on multiples
        for k in keys(seed, *prefix, first, count=stop - first):
            gen.bit_generator.state = {"bit_generator": "Philox",
                                       "state": {"counter": zeros, "key": k}, "buffer": zeros,
                                       "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
            yield gen
        first = stop
