import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mlmc_mvsde import (
    CapabilityError,
    NumericError,
    ParticleCloud,
    ShapeError,
    moment_w2,
    w2_to_dirac,
    wasserstein2,
)
from mlmc_mvsde.measure import particle_mean, sorted_mean


def brute_force_w2_1d(xs, ys):
    """Exhaustive minimum over all couplings of two equal-size 1D clouds."""
    best = math.inf
    for perm in itertools.permutations(range(len(ys))):
        cost = np.mean([(xs[i] - ys[j]) ** 2 for i, j in enumerate(perm)])
        best = min(best, cost)
    return math.sqrt(best)


def test_cloud_validation():
    with pytest.raises(ShapeError):
        ParticleCloud(np.zeros((2, 2, 2)))
    with pytest.raises(NumericError):
        ParticleCloud([1.0, np.inf])
    c = ParticleCloud([1.0, 2.0])
    assert c.m == 2 and c.positions.shape == (2, 1)
    assert not c.positions.flags.writeable
    # the metric layer takes its state arrays through the same check
    for metric in (moment_w2, lambda mu: wasserstein2(mu, mu)):
        with pytest.raises(ShapeError):
            metric(np.zeros((2, 2, 2)))
        with pytest.raises(ShapeError):
            metric(np.zeros((0, 1)))
        with pytest.raises(NumericError):
            metric([1.0, np.inf])


def test_moment_w2_examples():
    assert moment_w2(np.zeros((4, 1))) == 0.0
    assert moment_w2([3.0, 4.0]) == pytest.approx(math.sqrt(12.5), abs=1e-14)
    assert moment_w2([1.0, 1.0, 1.0, 1.0]) == pytest.approx(1.0, abs=1e-15)


def test_w2_to_dirac_examples():
    mu = np.array([[3.0], [4.0]])
    # with the zero point this is exactly the root second moment
    assert w2_to_dirac(mu, np.zeros(1)) == moment_w2(mu)
    assert w2_to_dirac([5.0], np.array([5.0])) == 0.0
    assert w2_to_dirac([0.0, 2.0], np.array([1.0])) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ShapeError):
        w2_to_dirac(mu, np.zeros(2))


def test_dirac_identity_random_clouds():
    rng = np.random.default_rng(5)
    for _ in range(200):
        m = rng.integers(1, 20)
        d = rng.integers(1, 4)
        mu = rng.normal(size=(m, d)) * 3
        assert abs(w2_to_dirac(mu, np.zeros(d)) - moment_w2(mu)) <= 1e-15


def test_wasserstein2_examples():
    assert wasserstein2([0.0, 1.0], [0.0, 1.0]) == 0.0
    assert wasserstein2([0.0, 0.0], [1.0, 1.0]) == pytest.approx(1.0)
    # both couplings of {0,2} vs {1,3}: sorted matching costs (1+1)/2
    assert wasserstein2([0.0, 2.0], [1.0, 3.0]) == pytest.approx(1.0)


def test_wasserstein2_against_brute_force_1d():
    rng = np.random.default_rng(17)
    for _ in range(60):
        m = rng.integers(1, 7)
        xs = rng.normal(size=m) * rng.uniform(0.5, 4.0)
        ys = rng.normal(size=m) * rng.uniform(0.5, 4.0)
        got = wasserstein2(xs, ys)
        assert got == pytest.approx(brute_force_w2_1d(xs, ys), abs=1e-12)


def test_wasserstein2_exact_assignment_d2():
    rng = np.random.default_rng(23)
    for _ in range(20):
        m = rng.integers(2, 6)
        xs = rng.normal(size=(m, 2))
        ys = rng.normal(size=(m, 2))
        got = wasserstein2(xs, ys)
        best = math.inf
        for perm in itertools.permutations(range(m)):
            cost = np.mean([np.sum((xs[i] - ys[j]) ** 2) for i, j in enumerate(perm)])
            best = min(best, cost)
        assert got == pytest.approx(math.sqrt(best), abs=1e-12)


def test_wasserstein2_properties():
    rng = np.random.default_rng(31)
    for _ in range(40):
        m = int(rng.integers(2, 12))
        a = rng.normal(size=m)
        b = rng.normal(size=m)
        c = rng.normal(size=m)
        assert wasserstein2(a, a) == 0.0
        assert wasserstein2(a, b) == wasserstein2(b, a)
        assert wasserstein2(a, c) <= wasserstein2(a, b) + wasserstein2(b, c) + 1e-12
        shift = float(rng.normal())
        shifted = wasserstein2(a + shift, b + shift)
        assert shifted == pytest.approx(wasserstein2(a, b), abs=1e-12)


def test_wasserstein2_errors():
    with pytest.raises(ShapeError):
        wasserstein2([0.0, 1.0], [0.0])
    with pytest.raises(ShapeError):
        wasserstein2(np.zeros((2, 1)), np.zeros((2, 2)))
    big = np.random.default_rng(0).normal(size=(300, 2))
    with pytest.raises(CapabilityError):
        wasserstein2(big, big)


def reference_sorted_mean(values):
    arr = np.sort(np.ascontiguousarray(values, dtype=float), axis=-1)
    return np.mean(arr, axis=-1)


@st.composite
def reduction_cases(draw):
    arr = draw(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=9),
                          elements=st.floats(-1e6, 1e6)))
    if arr.ndim > 1:
        # non-contiguous views: every axis reversed, or the last two swapped
        # as particle_mean swaps them
        arr = draw(st.sampled_from([arr, arr.T, np.swapaxes(arr, -1, -2)]))
    if draw(st.booleans()):
        arr = arr[::-1]  # negative stride
    return arr


@settings(max_examples=300, deadline=None)
@given(reduction_cases())
def test_sorted_mean_matches_reference_bitwise(arr):
    # the last axis is reduced, whatever the leading shape and the layout
    before = arr.copy()
    got = sorted_mean(arr)
    want = reference_sorted_mean(arr)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want) == arr.shape[:-1]
    assert np.array_equal(got, want)
    assert np.array_equal(arr, before)


@pytest.mark.parametrize("shape", [(1, 1), (5, 3), (2, 5, 3), (4, 2, 5, 1), (4, 128, 2)])
def test_particle_mean_keeps_a_unit_particle_axis(shape):
    # one system's (M, d) values give (1, d), a (K, M, d) stack (K, 1, d)
    values = np.random.default_rng(3).normal(size=shape)
    got = particle_mean(values)
    assert got.shape == shape[:-2] + (1, shape[-1])
    assert np.array_equal(got[..., 0, :], reference_sorted_mean(np.moveaxis(values, -2, -1)))
