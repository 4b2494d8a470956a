"""Every entry point refuses an argument out of its range with a
``ConfigurationError`` whose ``field`` names the argument.

Each entry point checks its arguments in one preflight before it draws
anything, so a library caller gets the refusal the CLI prints, not a
``ZeroDivisionError``, a ``ShapeError``, a numpy error or a warning.
"""

import math
from contextlib import contextmanager
from inspect import signature
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmc_mvsde import (ConfigurationError, LevelConfig, chaos_study, cost_compare,
                        coupled_variance_study, mlmc_estimate, ode_limit, second_moment_study,
                        simulate_level_pair, simulate_path, small_noise_curve, strong_error_curve)
from mlmc_mvsde import em_engine, mlmc_engine, rng

from helpers import IDENT, ou

MODEL = ou(0.3)

#: a tiny valid call of each entry point, every argument but the model by name
CALLS = {
    simulate_path: {"h": 0.5, "m_particles": 2, "seed": 0},
    ode_limit: {"h": 0.5},
    strong_error_curve: {"h_list": [0.5, 0.25], "m_particles": 2, "replications": 2, "seed": 0,
                         "ref_factor": 2},
    small_noise_curve: {"epsilon_list": [0.0, 0.5], "h": 0.5, "m_particles": 2,
                        "replications": 2, "seed": 0},
    coupled_variance_study: {"levels": [1, 2], "refinement_n": 2, "m_particles": 2,
                             "replications": 2, "test_fn": IDENT, "seed": 0},
    second_moment_study: {"levels": [1, 2], "refinement_n": 2, "m_particles": 2,
                          "replications": 2, "seed": 0},
    simulate_level_pair: {"cfg": LevelConfig(2, 1), "m_particles": 2, "test_fn": IDENT,
                          "seed": 0, "sample_index": 0},
    mlmc_estimate: {"test_fn": IDENT, "target_delta": 0.5, "refinement_n": 2, "m_particles": 2,
                    "pilot_samples": 2, "max_level": 2, "seed": 0},
    cost_compare: {"test_fn": IDENT, "delta_list": [0.5], "epsilon_list": [0.3],
                   "refinement_n": 2, "m_particles": 2, "pilot_samples": 2, "max_level": 2,
                   "seed": 0},
    chaos_study: {"m_list": [1], "reference_m": 2, "replications": 2, "seed": 0, "steps": 2,
                  "pathwise": False},
}

#: the arguments that are objects, not values a config could carry
OBJECTS = {"model", "test_fn", "cfg"}

INTEGERS = st.integers(-2, 2**70)
SCALARS = st.one_of(st.none(), st.booleans(), INTEGERS, st.floats(), st.text(max_size=3))
#: any JSON-like value: a scalar, or a list of them, possibly empty; lists of
#: one kind are drawn apart too, as a list argument holds one kind
VALUES = st.one_of(SCALARS, *(st.lists(kind, max_size=3) for kind in (SCALARS, INTEGERS,
                                                                        st.floats())))


class _Spent(Exception):
    """A run went on past the streams ``bounded`` allows: its arguments passed."""


@contextmanager
def bounded(limit: int = 64):
    """Keep a run the property admits small: a path takes at most 2**12 steps and
    a noise block holds at most 2**10 floats (smaller limits of the same checks),
    and a run that keys more than ``limit`` streams stops with ``_Spent``."""
    keyed = 0

    def spend():
        nonlocal keyed
        keyed += 1
        if keyed > limit:
            raise _Spent

    def stream(*key):
        spend()
        return rng.stream(*key)

    def streams(seed, *key, count):
        if count > rng.MAX_STREAMS - key[-1]:
            rng.keys(seed, *key, count=count)  # the refusal, before any key is formed
        for gen in rng.streams(seed, *key, count=min(count, limit + 1)):
            spend()
            yield gen

    with mock.patch.multiple(em_engine, MAX_STEPS=2**12, MAX_NOISE_FLOATS=2**10,
                             stream=stream, streams=streams), \
            mock.patch.multiple(mlmc_engine, stream=stream, streams=streams):
        yield


@pytest.mark.parametrize("fn", list(CALLS), ids=lambda fn: fn.__name__)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_an_entry_point_returns_or_blames_one_of_its_arguments(fn, data):
    params = [name for name in signature(fn).parameters if name not in OBJECTS]
    name = data.draw(st.sampled_from(params), label="argument")
    kwargs = {**CALLS[fn], name: data.draw(VALUES, label="value")}
    with bounded():
        try:
            fn(MODEL, **kwargs)
        except ConfigurationError as err:
            assert err.field in params, (err.field, str(err))
        except _Spent:
            pass


#: (entry point, the arguments that replace the valid ones, the field blamed):
#: each call raised something else, or no error, or one with no field
REPRODUCTIONS = [
    # ZeroDivisionError
    (cost_compare, {"refinement_n": 0}, "refinement_n"),
    # ShapeError
    *[(fn, {"m_particles": 0}, "m_particles")
      for fn in (strong_error_curve, small_noise_curve, cost_compare)],
    (chaos_study, {"m_list": [0]}, "m_list"),
    # ZeroDivisionError
    *[(fn, {"m_particles": 0}, "m_particles")
      for fn in (coupled_variance_study, mlmc_estimate, simulate_level_pair)],
    (small_noise_curve, {"replications": 0}, "replications"),
    # RuntimeWarning: Mean of empty slice
    (chaos_study, {"replications": 0}, "replications"),
    (coupled_variance_study, {"replications": 0}, "replications"),
    # numpy's ValueError: need at least one array to concatenate
    (second_moment_study, {"replications": 0}, "replications"),
    # ValueError from math.ceil: NaN passed the <= 0 check
    (mlmc_estimate, {"target_delta": math.nan}, "target_delta"),
    # TypeError
    (mlmc_estimate, {"refinement_n": 2.5}, "refinement_n"),
    # returned []
    (second_moment_study, {"levels": []}, "levels"),
    # a ConfigurationError with no field
    (cost_compare, {"epsilon_list": [2]}, "epsilon_list"),
    (small_noise_curve, {"epsilon_list": [2]}, "epsilon_list"),
    (simulate_path, {"m_particles": 0}, "m_particles"),
    # found by the property: OverflowError from delta**-2 and delta**2, a
    # ZeroDivisionError where delta**2 underflows, and a stream range past the
    # key space refused with no field
    (mlmc_estimate, {"target_delta": 1e-200}, "target_delta"),
    *[(cost_compare, {"delta_list": [delta]}, "delta_list") for delta in (1e-200, 1e200)],
    (simulate_level_pair, {"sample_index": 2**32}, "sample_index"),
    (strong_error_curve, {"replications": 2**32 + 1}, "replications"),
]


@pytest.mark.parametrize("fn,args,field", REPRODUCTIONS,
                         ids=[f"{fn.__name__}-{'-'.join(f'{k}={v}' for k, v in args.items())}"
                              for fn, args, _ in REPRODUCTIONS])
def test_an_argument_out_of_range_is_refused_by_name(fn, args, field):
    with pytest.raises(ConfigurationError) as err:
        fn(MODEL, **{**CALLS[fn], **args})
    assert err.value.field == field


@pytest.mark.parametrize("n", [0, 1])
def test_cost_compare_refuses_refinement_n_before_it_draws_a_stream(monkeypatch, n):
    # at n = 0 it divided by n**3; at n = 1 it ran every calibration sweep and
    # variance pilot before the estimator's LevelConfig refused it
    drawn = []
    for module in (em_engine, mlmc_engine):
        monkeypatch.setattr(module, "stream", lambda *key: drawn.append(key))
        monkeypatch.setattr(module, "streams", lambda *key, count: drawn.append(key))
    with pytest.raises(ConfigurationError) as err:
        cost_compare(ou(0.1), IDENT, [0.1], [0.1], n, 2, 2, 2)
    assert err.value.field == "refinement_n"
    assert drawn == []
