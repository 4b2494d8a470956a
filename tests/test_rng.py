"""``rng.stream`` draws the bits of numpy's own SeedSequence-keyed Philox
stream, ``rng.keys`` derives numpy's keys for a whole range of indices and
``rng.streams`` yields those streams in turn, a stream starts at its
beginning whatever was drawn before and keeps its place when another
opens, and a seed or key word outside the key space is refused instead of
masked onto another stream."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmc_mvsde import ConfigurationError
from mlmc_mvsde.rng import _KEY_BLOCK, keys, stream, streams

MASK32 = 2**32 - 1


def reference(seed: int, *key: int) -> np.random.Generator:
    """The stream as numpy builds it from a SeedSequence."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


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
)
words = st.one_of(
    st.sampled_from([0, 1, 255, 256, 511, 512, MASK32 - 1, MASK32]),
    st.integers(0, MASK32),
)
key_words = st.lists(words, min_size=1, max_size=3)


@settings(max_examples=300, deadline=None)
@given(seeds, key_words)
def test_stream_draws_the_seed_sequence_bits(seed, key):
    assert probe(stream(seed, *key)) == probe(reference(seed, *key))


@settings(max_examples=200, deadline=None)
@given(seeds, key_words, key_words,
       st.sampled_from(["standard_normal", "random", "integers"]), st.integers(1, 9))
def test_a_new_stream_is_reset_after_any_use(seed, used, key, method, size):
    gen = stream(seed, *used)
    if method == "integers":
        gen.integers(0, 2**32, size=size, dtype=np.uint32)
    else:
        getattr(gen, method)(size)
    assert probe(stream(seed, *key)) == probe(reference(seed, *key))


def test_a_stream_keeps_its_place_when_another_opens():
    gen = stream(3, 1, 2)
    head = gen.standard_normal(3).tolist()
    stream(3, 5)
    assert head + gen.standard_normal(4).tolist() == reference(3, 1, 2).standard_normal(7).tolist()


def test_consecutive_indices_across_a_block_edge_match():
    for last in range(250, 262):
        assert probe(stream(7, 4, 2, last)) == probe(reference(7, 4, 2, last))


def test_stream_needs_a_domain():
    with pytest.raises(ConfigurationError):
        stream(0)


def ranges(count: int):
    """First key words of ``count`` streams: a range that starts on or straddles
    a multiple of 256 or of ``streams``' key block, or one that ends at the
    last key word."""
    # block >= 2 keeps first >= 0, and the largest block first + count <= 2**32
    return st.one_of(*[st.builds(lambda block, back, size=size: size * block - back,
                                 st.integers(2, 2**32 // size - 2), st.integers(0, count - 1))
                       for size in (256, _KEY_BLOCK)],
                     st.just(2**32 - count))


@settings(max_examples=60, deadline=None)
@given(seeds, st.lists(words, min_size=1, max_size=2), st.integers(1, 300), st.data())
def test_range_keys_equal_the_seed_sequence_keys(seed, prefix, count, data):
    first = data.draw(ranges(count))
    got = keys(seed, *prefix, first, count=count)
    want = [np.random.SeedSequence(seed, spawn_key=(*prefix, first + j)).generate_state(
        2, np.uint64) for j in range(count)]
    assert got.dtype == np.uint64 and got.tolist() == np.array(want).tolist()


@settings(max_examples=60, deadline=None)
@given(seeds, st.lists(words, min_size=1, max_size=2), st.integers(1, 40), st.data())
def test_streams_draw_the_seed_sequence_streams_in_turn(seed, prefix, count, data):
    # each generator is probed before the next is asked for; a probe leaves
    # half a word buffered, which the reset onto the next stream must drop
    first = data.draw(ranges(count))
    assert [probe(gen) for gen in streams(seed, *prefix, first, count=count)] == [
        probe(reference(seed, *prefix, first + j)) for j in range(count)]


def test_streams_of_no_count_yield_nothing():
    assert list(streams(0, 4, 2, 7, count=0)) == []


def test_streams_memory_does_not_grow_with_count():
    # keying the whole range before the first yield peaked at about 100 MB
    tracemalloc.start()
    try:
        next(streams(0, 4, 1, 0, count=10**6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("seed, key", [
    (-1, (1, 2)), (2**64, (1, 2)), (-(2**70), (1,)), (2**70, (1,)),  # seeds outside 64 bits
    (0, (1, -1)), (0, (2**32, 2)), (0, (1, 2, 2**40)), (0, (-(2**40),)),  # words outside 32 bits
    (1.0, (1, 2)), (True, (1, 2)), ("0", (1,)), (0, (1.0, 2)), (0, (1, None)),  # not integers
])
def test_a_seed_or_key_word_outside_the_key_space_is_refused(seed, key):
    # masking would draw another key's bits: stream(2**64, 1, 2) == stream(0, 1, 2)
    with pytest.raises(ConfigurationError):
        stream(seed, *key)
    with pytest.raises(ConfigurationError):
        keys(seed, *key, count=1)


@pytest.mark.parametrize("first, count", [(MASK32, 2), (2**32 - 5, 6), (0, 2**32 + 1), (3, -1),
                                          (2**32 - 256, 257)])
def test_a_range_past_the_last_key_word_is_refused(first, count):
    with pytest.raises(ConfigurationError):
        keys(0, 4, 2, first, count=count)
    with pytest.raises(ConfigurationError):
        next(streams(0, 4, 2, first, count=count))
