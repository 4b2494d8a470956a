"""Every per-system Euler path, and the stacked coarse paths of a level pair,
report the step at which they failed, a state past the trust region or a
non-finite coefficient alike, and the CLI prints it (``simulate_path`` and
``ode_limit`` are covered in ``test_em_engine``)."""

import json

import numpy as np
import pytest

from mlmc_mvsde import (
    DivergenceError,
    LevelConfig,
    ModelSpec,
    NumericError,
    builtin_model,
    builtin_test_function,
    chaos_study,
    simulate_level_pair,
    small_noise_curve,
    strong_error_curve,
)
from mlmc_mvsde import cli_runner, em_engine, mlmc_engine
from mlmc_mvsde.cli_runner import main

STEP = 5


class _SpikeAt:
    """Stand-in for ``rng.stream`` and ``rng.streams``: every variate is zero
    except the noise of step ``step`` of each system, which is ``value``.
    Fills are step-major blocks of shape (..., M, d_bar); steps are counted
    from the last stream opened or yielded, so per-step fills and whole-path
    fills agree."""

    def __init__(self, step, value=1e14):
        self.step, self.value, self.done = step, value, 0

    def __call__(self, *key):
        self.done = 0
        return self

    def streams(self, *key, count):
        for _ in range(count):
            yield self()

    def standard_normal(self, size=None, out=None):
        out = np.zeros(size) if out is None else out
        out.fill(0.0)
        blocks = out.reshape((-1,) + out.shape[-2:])
        if 0 <= self.step - self.done < len(blocks):
            blocks[self.step - self.done] = self.value
        self.done += len(blocks)
        return out


def install(monkeypatch, fake):
    for module in (em_engine, mlmc_engine):
        monkeypatch.setattr(module, "stream", fake)
        monkeypatch.setattr(module, "streams", fake.streams)
    return fake


@pytest.fixture
def spike(monkeypatch):
    return install(monkeypatch, _SpikeAt(STEP))


def flat_model():
    # zero drift, unit diffusion, all particles at 0: the state stays 0 until
    # the spike, which moves it past DIVERGENCE_LIMIT in that one step
    return builtin_model("constant_drift",
                         {"c": 0.0, "sigma": 1.0, "x0": 0.0, "T": 1.0, "epsilon": 1.0})


RUNS = {
    "strong_error_curve": lambda model: strong_error_curve(
        model, [0.5, 0.25], 3, 2, seed=0, ref_factor=4),
    "small_noise_curve": lambda model: small_noise_curve(
        model, [1.0], 0.125, 3, 2, seed=0),
    "chaos_study": lambda model: chaos_study(model, [2], 4, 2, seed=0, steps=8),
    "simulate_level_pair": lambda model: simulate_level_pair(
        model, LevelConfig(refinement_n=2, level=3), 3,
        builtin_test_function("identity"), seed=0),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_divergence_carries_the_step_index(spike, name):
    with pytest.raises(DivergenceError) as err:
        RUNS[name](flat_model())
    assert err.value.step_index == STEP
    # only a level sample has two paths to tell apart
    assert err.value.path == ("fine" if name == "simulate_level_pair" else None)


def test_a_failed_step_is_a_numeric_error():
    assert issubclass(DivergenceError, NumericError)


def nan_off_zero():
    # zero drift at 0 and NaN anywhere else, unit noise: the state stays 0
    # until a unit spike at step STEP moves it, so the drift of step STEP + 1
    # is the first non-finite value
    return ModelSpec(d_bar=1, drift=lambda x, mu: np.where(x == 0.0, 0.0, np.nan),
                     diffusion=lambda x, mu: np.ones(x.shape[:-1] + (1, 1)), epsilon=1.0,
                     x0=np.array([0.0]), horizon=1.0, lipschitz_K=0.0, growth_beta=1.0)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_a_nan_drift_carries_the_step_index(monkeypatch, name):
    # a non-finite coefficient raised a bare NumericError, with no step or path
    install(monkeypatch, _SpikeAt(STEP, value=1.0))
    with pytest.raises(DivergenceError, match="^drift produced a non-finite value") as err:
        RUNS[name](nan_off_zero())
    assert err.value.step_index == STEP + 1
    assert err.value.path == ("fine" if name == "simulate_level_pair" else None)


def coarse_nan_model():
    # drift -3 x, NaN from |x| = 1.5 on, no noise, x0 = 1, T = 2: at level 2
    # with N = 2 (h_fine = 1/2, h_coarse = 1) the fine factor -1/2 keeps
    # |x| <= 1, while the coarse factor -2 takes x to -2 at coarse step 0, so
    # the drift of coarse step 1 is NaN
    return ModelSpec(d_bar=1,
                     drift=lambda x, mu: np.where(np.abs(x) < 1.5, -3.0 * x, np.nan),
                     diffusion=lambda x, mu: np.zeros(x.shape[:-1] + (1, 1)), epsilon=0.0,
                     x0=np.array([1.0]), horizon=2.0, lipschitz_K=3.0, growth_beta=18.0)


def test_a_nan_coarse_drift_carries_the_coarse_step_index():
    with pytest.raises(DivergenceError, match="^drift ") as err:
        simulate_level_pair(coarse_nan_model(), LevelConfig(refinement_n=2, level=2), 3,
                            builtin_test_function("identity"), seed=0)
    assert (err.value.step_index, err.value.path) == (1, "coarse")


def test_cli_prints_the_step_and_path_of_a_nan_coarse_drift(monkeypatch, tmp_path, capsys):
    # the CLI printed "divergence: drift ..." with no step and no path
    monkeypatch.setattr(cli_runner, "builtin_model", lambda name, params: coarse_nan_model())
    cfg = {
        "experiment": "coupled-variance",
        "model": {"name": "zero", "params": {}},
        "grid": {"refinement_n": 2, "levels": [2, 2], "m_particles": 3, "replications": 2},
        "seed": 0,
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "div.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path)]) == 3
    assert capsys.readouterr().err == ("divergence at step 1: coarse path: drift produced a "
                                       "non-finite value at component (0, 0, 0)\n")


def test_cli_prints_the_divergence_step(spike, tmp_path, capsys):
    cfg = {
        "experiment": "strong-error",
        "model": {"name": "constant_drift",
                  "params": {"c": 0.0, "sigma": 1.0, "x0": 0.0, "T": 1.0, "epsilon": 1.0}},
        "grid": {"h_list": [0.5, 0.25], "ref_factor": 4, "m_particles": 3, "replications": 2},
        "seed": 0,
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "div.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path)]) == 3
    assert f"divergence at step {STEP}:" in capsys.readouterr().err


def coarse_only_params():
    # h_fine = 1/2 gives the fine factor 1 - 3/2 = -1/2 per step, h_coarse = 1
    # the coarse factor 1 - 3 = -2: only the coarse path leaves the trust
    # region, at its first step (|-2 x0| = 1.2e12)
    return {"a": 3.0, "b": 0.0, "sigma": 0.0, "x0": 6e11, "T": 1.0, "epsilon": 0.0}


def test_a_coarse_divergence_carries_the_coarse_step_index():
    model = builtin_model("meanfield_ou", coarse_only_params())
    cfg = LevelConfig(refinement_n=2, level=1)
    with pytest.raises(DivergenceError) as err:
        simulate_level_pair(model, cfg, 3, builtin_test_function("identity"), seed=0)
    assert err.value.step_index == 0
    assert err.value.path == "coarse"


def test_cli_prints_the_coarse_divergence_step(tmp_path, capsys):
    cfg = {
        "experiment": "coupled-variance",
        "model": {"name": "meanfield_ou", "params": coarse_only_params()},
        "grid": {"refinement_n": 2, "levels": [1, 1], "m_particles": 3, "replications": 2},
        "seed": 0,
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "div.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path)]) == 3
    assert "divergence at step 0:" in capsys.readouterr().err


def test_cli_names_the_diverged_path(spike, tmp_path, capsys):
    # the spike at fine step 5 of a level-3 pair stops the fine path first
    cfg = {
        "experiment": "coupled-variance",
        "model": {"name": "constant_drift",
                  "params": {"c": 0.0, "sigma": 1.0, "x0": 0.0, "T": 1.0, "epsilon": 1.0}},
        "grid": {"refinement_n": 2, "levels": [3, 3], "m_particles": 3, "replications": 2},
        "seed": 0,
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "div.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path)]) == 3
    assert f"divergence at step {STEP}: fine path:" in capsys.readouterr().err
