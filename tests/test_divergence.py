"""Every per-system Euler path reports the step at which it diverged, and
the CLI prints it (``simulate_path`` is covered in ``test_em_engine``)."""

import json

import numpy as np
import pytest

from mlmc_mvsde import (
    DivergenceError,
    LevelConfig,
    SimulationGrid,
    builtin_model,
    builtin_test_function,
    chaos_study,
    simulate_level_pair,
    small_noise_curve,
    strong_error_curve,
)
from mlmc_mvsde import em_engine, mlmc_engine
from mlmc_mvsde.cli_runner import main

STEP = 5


class _SpikeAt:
    """Stand-in for ``rng.stream``: every variate is zero except the noise of
    step ``step`` of each system, which is ``value``. Fills are step-major
    blocks of shape (..., M, d_bar); steps are counted from the last
    ``stream`` call, so per-step fills and whole-path fills agree."""

    def __init__(self, step, value=1e14):
        self.step, self.value, self.done = step, value, 0

    def __call__(self, *key):
        self.done = 0
        return self

    def standard_normal(self, size=None, out=None):
        out = np.zeros(size) if out is None else out
        out.fill(0.0)
        blocks = out.reshape((-1,) + out.shape[-2:])
        if 0 <= self.step - self.done < len(blocks):
            blocks[self.step - self.done] = self.value
        self.done += len(blocks)
        return out


@pytest.fixture
def spike(monkeypatch):
    fake = _SpikeAt(STEP)
    monkeypatch.setattr(em_engine, "stream", fake)
    monkeypatch.setattr(mlmc_engine, "stream", fake)
    return fake


def flat_model():
    # zero drift, unit diffusion, all particles at 0: the state stays 0 until
    # the spike, which moves it past DIVERGENCE_LIMIT in that one step
    return builtin_model("constant_drift",
                         {"c": 0.0, "sigma": 1.0, "x0": 0.0, "T": 1.0, "epsilon": 1.0})


RUNS = {
    "strong_error_curve": lambda model: strong_error_curve(
        model, [0.5, 0.25], 3, 2, seed=0, ref_factor=4),
    "small_noise_curve": lambda model: small_noise_curve(
        model, [1.0], SimulationGrid.from_steps(1.0, 8), 3, 2, seed=0),
    "chaos_study": lambda model: chaos_study(model, [2], 4, 2, seed=0, steps=8),
    "simulate_level_pair": lambda model: simulate_level_pair(
        model, LevelConfig(refinement_n=2, level=3, horizon=1.0), 3,
        builtin_test_function("identity"), seed=0),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_divergence_carries_the_step_index(spike, name):
    with pytest.raises(DivergenceError) as err:
        RUNS[name](flat_model())
    assert err.value.step_index == STEP


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
