"""Properties of ``ModelSpec.start``: reusing the start states' coefficients
changes no bits, and no model ever sees another model's start state."""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmc_mvsde import (
    LevelConfig,
    ModelSpec,
    builtin_model,
)
from mlmc_mvsde.em_engine import advance
from mlmc_mvsde.mlmc_engine import _level_samples
from mlmc_mvsde.model import coefficients

from helpers import IDENT, builtin_args


class _Uncached(ModelSpec):
    """A model that hands out new all-x0 states each time: every step is
    evaluated, as before the start state was built once."""

    def start(self, m):
        return np.tile(self.x0, (m, 1))


def uncached(model):
    return _Uncached(**{f.name: getattr(model, f.name) for f in fields(model) if f.init})


small_m = st.integers(1, 6)
seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=25, deadline=None)
@given(args=builtin_args(), m=small_m, seed=seeds)
def test_warm_start_cache_changes_no_bits(args, m, seed):
    for level in (0, 1, 2):
        fresh = builtin_model(*args)
        warm = builtin_model(*args)
        warm.start(m)
        cfg = LevelConfig(2, level)
        got = [_level_samples(model, cfg, m, IDENT, seed, 0, 3)
               for model in (fresh, warm, uncached(fresh))]
        assert got[0].tobytes() == got[1].tobytes() == got[2].tobytes()


@settings(max_examples=25, deadline=None)
@given(args=builtin_args(), m=small_m, seed=seeds, level=st.integers(0, 2),
       n=st.integers(1, 5), data=st.data())
def test_sample_extension_is_prefix_stable(args, m, seed, level, n, data):
    k = data.draw(st.integers(0, n))
    model = builtin_model(*args)
    cfg = LevelConfig(2, level)
    whole = _level_samples(model, cfg, m, IDENT, seed, 0, n)
    head = _level_samples(model, cfg, m, IDENT, seed, 0, k)
    tail = _level_samples(model, cfg, m, IDENT, seed, k, n - k)
    assert np.concatenate([head, tail]).tobytes() == whole.tobytes()


@settings(max_examples=25, deadline=None)
@given(args=builtin_args(), m=small_m, eps=st.sampled_from([0.0, 0.3, 1.0]), seed=seeds)
def test_copies_never_reuse_start_coefficients(args, m, eps, seed):
    model = builtin_model(*args)
    start = model.start(m)
    xi = np.random.default_rng(seed).standard_normal((m, model.d_bar))

    def step(model, x):
        return advance(model, x, 0.25, 0.5, xi)

    before = step(model, start)
    shifted = replace(model, drift=lambda x, mu: model.drift(x, mu) + 1.0)
    for other in (replace(model, epsilon=eps), shifted):
        other_start = other.start(m)
        assert other_start is not start
        # the same step from states that are not the start array is evaluated afresh
        expected = step(other, np.tile(other.x0, (m, 1)))
        assert step(other, other_start).tobytes() == expected.tobytes()
    assert model.start(m) is start
    assert step(model, start).tobytes() == before.tobytes()


@settings(max_examples=25, deadline=None)
@given(args=builtin_args(), m=small_m)
def test_start_is_read_only_and_built_once(args, m):
    model = builtin_model(*args)
    start = model.start(m)
    assert model.start(m) is start
    assert type(start) is np.ndarray and start.shape == (m, model.d)
    assert np.all(start == model.x0)
    with pytest.raises(ValueError):
        start[0, 0] = 1.0
    for coef in coefficients(model, start):
        assert not coef.flags.writeable
    assert coefficients(model, start)[0] is coefficients(model, model.start(m))[0]
