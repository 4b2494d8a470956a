"""Properties of the chunked level-pair routine: it equals a loop of
``coupled_coarse_interval`` bit for bit whatever the chunking, its level-0
samples equal one ``em_step`` per sample and ``simulate_level_pair`` at level
0, relabelling particles only relabels its output, it raises the same errors
from inside a chunk, it hands every coefficient the state array itself as
the measure, and the estimator built on it keeps its exactness and cost
identities."""

from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmc_mvsde import (
    DivergenceError,
    LevelConfig,
    ModelSpec,
    NumericError,
    ParticleCloud,
    builtin_model,
    builtin_test_function,
    em_step,
    mlmc_estimate,
    simulate_level_pair,
)
from mlmc_mvsde import mlmc_engine
from mlmc_mvsde.measure import sorted_mean
from mlmc_mvsde.mlmc_engine import _coupled_pairs, coupled_coarse_interval, _level_samples
from mlmc_mvsde.model import BUILTIN_TEST_FUNCTIONS
from mlmc_mvsde.rng import DOMAIN_LEVEL_ZERO, stream

from helpers import IDENT, PARAMS, builtin_args


def looped(model, cfg, xi):
    """Terminal states of each sample through ``coupled_coarse_interval``."""
    fine, coarse = [], []
    for blocks in xi:
        fine_m = coarse_m = model.start(xi.shape[3])
        for block in blocks:
            fine_m, coarse_m = coupled_coarse_interval(model, fine_m, coarse_m, cfg, block)
        fine.append(fine_m)
        coarse.append(coarse_m)
    return np.stack(fine), np.stack(coarse)


@settings(max_examples=40, deadline=None)
@given(args=builtin_args(), level=st.integers(1, 3),
       n_ref=st.integers(2, 3), m=st.integers(1, 5), count=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_chunked_pairs_equal_looped_intervals(args, level, n_ref, m, count,
                                              seed, data):
    model = builtin_model(*args)
    cfg = LevelConfig(refinement_n=n_ref, level=level)
    xi = np.random.default_rng(seed).standard_normal(
        (count, cfg.coarse_steps, n_ref, m, model.d_bar))
    want_fine, want_coarse = looped(model, cfg, xi)
    between = data.draw(st.integers(1, count))
    for size in (1, between, count):
        chunks = [_coupled_pairs(model, cfg, xi[lo:lo + size])
                  for lo in range(0, count, size)]
        fine = np.concatenate([c[0] for c in chunks])
        coarse = np.concatenate([c[1] for c in chunks])
        assert fine.shape == coarse.shape == (count, m, model.d)
        assert fine.tobytes() == want_fine.tobytes()
        assert coarse.tobytes() == want_coarse.tobytes()


@settings(max_examples=40, deadline=None)
@given(args=builtin_args(), psi=st.sampled_from(BUILTIN_TEST_FUNCTIONS),
       m=st.integers(1, 5), count=st.integers(0, 6), seed=st.integers(0, 2**32 - 1),
       start=st.builds(lambda block, offset: max(0, 256 * block + offset),
                       st.integers(0, 4), st.integers(-6, 6)),
       data=st.data())
def test_level0_samples_equal_one_step_per_sample(args, psi, m, count, seed, start, data):
    model = builtin_model(*args)
    test_fn = builtin_test_function(psi)
    want = []
    for index in range(start, start + count):
        xi = stream(seed, DOMAIN_LEVEL_ZERO, 0, index).standard_normal((m, model.d_bar))
        cloud = em_step(model, ParticleCloud(model.start(m)), model.horizon, xi)
        want.append(sorted_mean(test_fn.psi(cloud.positions)))
    cuts = sorted(data.draw(st.lists(st.integers(start, start + count), max_size=3)))
    bounds = [start, *cuts, start + count]
    cfg = LevelConfig(2, 0)
    got = np.concatenate([_level_samples(model, cfg, m, test_fn, seed, lo, hi - lo)
                          for lo, hi in zip(bounds, bounds[1:])])
    assert got.tobytes() == np.array(want, dtype=float).tobytes()


@settings(max_examples=25, deadline=None)
@given(args=builtin_args(), psi=st.sampled_from(BUILTIN_TEST_FUNCTIONS),
       m=st.integers(1, 5), seed=st.integers(0, 2**32 - 1), index=st.integers(0, 50))
def test_level0_pair_equals_the_level0_sample(args, psi, m, seed, index):
    # level 0 has no coarse term: the difference is the fine value itself
    model = builtin_model(*args)
    test_fn = builtin_test_function(psi)
    cfg = LevelConfig(refinement_n=2, level=0)
    diff, fine, cost = simulate_level_pair(model, cfg, m, test_fn, seed, index)
    want = _level_samples(model, cfg, m, test_fn, seed, index, 1)
    assert np.array([diff]).tobytes() == np.array([fine]).tobytes() == want.tobytes()
    assert cost == m * model.d_bar


@settings(max_examples=25, deadline=None)
@given(args=builtin_args(), level=st.integers(1, 3),
       m=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_relabelled_particles_move_to_the_same_bits(args, level, m, seed):
    model = builtin_model(*args)
    cfg = LevelConfig(refinement_n=2, level=level)
    rng = np.random.default_rng(seed)
    xi = rng.standard_normal((2, cfg.coarse_steps, 2, m, model.d_bar))
    perm = rng.permutation(m)
    fine, coarse = _coupled_pairs(model, cfg, xi)
    fine_p, coarse_p = _coupled_pairs(model, cfg, xi[..., perm, :])
    assert fine_p.tobytes() == fine[:, perm].tobytes()
    assert coarse_p.tobytes() == coarse[:, perm].tobytes()


@settings(max_examples=20, deadline=None)
@given(args=builtin_args(), level=st.integers(0, 3), m=st.integers(1, 5),
       count=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_level_samples_do_not_depend_on_the_chunk_budget(args, level, m, count, seed, data):
    model = builtin_model(*args)
    sample_bytes = 8 * 2**level * m * model.d_bar
    cfg = LevelConfig(2, level)
    whole = _level_samples(model, cfg, m, IDENT, seed, 0, count)
    for per_chunk in (1, data.draw(st.integers(1, count))):
        with patch.object(mlmc_engine, "CHUNK_NOISE_BYTES", per_chunk * sample_bytes):
            got = _level_samples(model, cfg, m, IDENT, seed, 0, count)
        assert got.tobytes() == whole.tobytes()


class _Blocks:
    """Stand-in for the per-sample seam ``rng.streams``: sample ``bad`` gets
    ``value`` on its first coarse interval (its first N = 2 fine blocks),
    every other variate is zero."""

    def __init__(self, bad, value):
        self.bad, self.value, self.index = bad, value, None

    def streams(self, seed, domain, level, first, count):
        for self.index in range(first, first + count):
            yield self

    def install(self, monkeypatch):
        monkeypatch.setattr(mlmc_engine, "streams", self.streams)

    def standard_normal(self, out):
        out.fill(0.0)
        if self.index == self.bad:
            out[:2] = self.value
        return out


def _linear_model(drift):
    return ModelSpec(d_bar=1, drift=drift,
                     diffusion=lambda x, mu: np.ones(x.shape[:-1] + (1, 1)),
                     epsilon=1.0, x0=np.array([0.0]), horizon=1.0,
                     lipschitz_K=16.0, growth_beta=32.0)


def test_one_diverging_coarse_path_in_a_chunk_raises(monkeypatch):
    # h_fine = 1/2: the fine path goes to c*xi and back to 0, while the coarse
    # path takes the summed noise 2*c*xi in one step, past DIVERGENCE_LIMIT
    model = _linear_model(lambda x, mu: -4.0 * x)
    cfg = LevelConfig(2, 1)
    c = np.sqrt(0.5)
    _Blocks(bad=2, value=0.75e12 / c).install(monkeypatch)
    with pytest.raises(DivergenceError):
        _level_samples(model, cfg, 3, IDENT, 0, 0, 4)
    _Blocks(bad=2, value=0.4e12 / c).install(monkeypatch)
    assert np.all(_level_samples(model, cfg, 3, IDENT, 0, 0, 4)[[0, 1, 3]] == 0.0)


def test_a_nan_coarse_drift_in_a_chunk_is_named(monkeypatch):
    # finite on |x| < 2 only: the bad sample's fine path peaks at 1.5 and
    # ends its first interval at 0, its coarse path ends it at 3
    model = _linear_model(lambda x, mu: np.where(np.abs(x) < 2.0, -4.0 * x, np.nan))
    model = replace(model, horizon=2.0)
    _Blocks(bad=1, value=1.5 / np.sqrt(0.5)).install(monkeypatch)
    with pytest.raises(NumericError, match="drift"):
        _level_samples(model, LevelConfig(2, 2), 3, IDENT, 0, 0, 3)


def test_coefficients_take_the_state_array_as_their_measure():
    # the model contract: every coefficient call gets the (..., M, d) state
    # array itself as mu, one system on the fine path, a (K, M, d) stack on
    # the coarse one
    calls = []

    def recorded(out):
        def coefficient(x, mu):
            calls.append((type(mu), mu is x, x.shape))
            return out(x)
        return coefficient

    model = ModelSpec(d_bar=1, drift=recorded(lambda x: -0.5 * x),
                      diffusion=recorded(lambda x: np.ones(x.shape + (1,))),
                      epsilon=0.5, x0=np.array([1.0, -1.0]), horizon=1.0,
                      lipschitz_K=1.0, growth_beta=2.0)
    m, k = 3, 4
    cfg = LevelConfig(2, 2)
    for run, stack in ((lambda: simulate_level_pair(model, cfg, m, IDENT, 5, 1), 1),
                       (lambda: _level_samples(model, cfg, m, IDENT, 5, 0, k), k)):
        calls.clear()
        run()
        assert {(kind, same) for kind, same, _ in calls} == {(np.ndarray, True)}
        assert {shape for _, _, shape in calls} == {(m, 2), (stack, m, 2)}


@settings(max_examples=20, deadline=None)
@given(args=builtin_args(epsilons=(0.0,)), level=st.integers(0, 3), m=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
def test_zero_noise_level_samples_are_identical(args, level, m, seed):
    # bit-identical samples: zero sample variance (numpy's ``var`` may still
    # read about 1e-33, since the rounded mean need not equal the samples)
    model = builtin_model(*args)
    xs = _level_samples(model, LevelConfig(2, level), m, IDENT, seed, 0, 5)
    assert xs.tobytes() == np.full(5, xs[0]).tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mlmc_total_cost_is_the_allocation_cost(seed):
    model = builtin_model("meanfield_ou", {**PARAMS["meanfield_ou"], "x0": 1.0, "T": 1.0,
                                           "epsilon": 0.5})
    m, n_ref = 4, 2
    report = mlmc_estimate(model, IDENT, 0.02, n_ref, m, pilot_samples=8, max_level=4,
                           seed=seed)
    assert [row.samples for row in report.per_level] == report.allocation
    assert report.total_cost == sum(k * m * model.d_bar * n_ref**level
                                    for level, k in enumerate(report.allocation))
