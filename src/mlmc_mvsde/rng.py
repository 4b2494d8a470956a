"""Reproducible Gaussian streams.

Every stochastic routine derives its noise from a counter-based Philox
generator keyed by ``(seed, domain, *context)``. The domain constant keeps
streams of different experiment kinds disjoint, the context identifies the
replication (and, where relevant, the level), and positions inside one
stream follow a fixed step-major layout. Two runs with the same key consume
bit-identical variates regardless of scheduling, which is what makes the
fine/coarse couplings and the cost accounting reproducible.
"""

from __future__ import annotations

import numpy as np

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


def stream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the Gaussian stream identified by ``(seed, *key)``."""
    entropy = int(seed) & _MASK64
    spawn = tuple(int(k) & _MASK32 for k in key)
    ss = np.random.SeedSequence(entropy=entropy, spawn_key=spawn)
    return np.random.Generator(np.random.Philox(ss))

