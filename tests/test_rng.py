"""``rng.stream`` draws the bits of numpy's own SeedSequence-keyed Philox
stream, and opening a stream resets whatever the previous one left behind."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmc_mvsde import ConfigurationError
from mlmc_mvsde.rng import stream

MASK64 = 2**64 - 1
MASK32 = 2**32 - 1


def reference(seed: int, *key: int) -> np.random.Generator:
    """The stream as numpy builds it from a SeedSequence."""
    ss = np.random.SeedSequence(entropy=seed & MASK64, spawn_key=tuple(k & MASK32 for k in key))
    return np.random.Generator(np.random.Philox(ss))


def probe(gen: np.random.Generator) -> list:
    """Draws through every path the library and the tests use: an odd
    uint32 count leaves half a 64-bit word buffered before the floats."""
    return [gen.integers(0, 2**32, size=3, dtype=np.uint32).tolist(),
            gen.standard_normal(5).tolist(),
            gen.random(2).tolist()]


seeds = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(-(2**70), -1),  # masked to 64 bits
    st.integers(2**64, 2**70),  # masked to 64 bits
)
words = st.one_of(
    st.sampled_from([0, 1, 255, 256, 511, 512, MASK32 - 1, MASK32]),
    st.integers(0, MASK32),
    st.integers(-(2**40), -1),  # masked to 32 bits
    st.integers(2**32, 2**40),  # masked to 32 bits
)
keys = st.lists(words, min_size=1, max_size=3)


@settings(max_examples=300, deadline=None)
@given(seeds, keys)
def test_stream_draws_the_seed_sequence_bits(seed, key):
    assert probe(stream(seed, *key)) == probe(reference(seed, *key))


@settings(max_examples=200, deadline=None)
@given(seeds, keys, keys,
       st.sampled_from(["standard_normal", "random", "integers"]), st.integers(1, 9))
def test_a_new_stream_is_reset_after_any_use(seed, used, key, method, size):
    gen = stream(seed, *used)
    if method == "integers":
        gen.integers(0, 2**32, size=size, dtype=np.uint32)
    else:
        getattr(gen, method)(size)
    assert probe(stream(seed, *key)) == probe(reference(seed, *key))


def test_consecutive_indices_across_a_block_edge_match():
    for last in range(250, 262):
        assert probe(stream(7, 4, 2, last)) == probe(reference(7, 4, 2, last))


def test_stream_needs_a_domain():
    with pytest.raises(ConfigurationError):
        stream(0)
