"""Single-level particle-system simulation and its deterministic limit.

One explicit step advances every particle against the empirical measure of
the *input* cloud (the measure is frozen before any particle moves), adding
``drift * h + epsilon * diffusion @ (sqrt(h) * xi)`` per particle. Driving
noise is always supplied by the caller as standard-normal arrays so that
fine and coarse discretizations of the same path can share increments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DivergenceError, ShapeError
from .measure import ParticleCloud, sorted_mean
from .model import (DIVERGENCE_LIMIT, ModelSpec, TestFunction, _check_finite,
                    builtin_test_function, coefficients)
from .rng import DOMAIN_PATH, DOMAIN_SMALL_NOISE, DOMAIN_STRONG_ERROR, stream

#: reference grid is finer than the smallest requested step by this factor
DEFAULT_REF_FACTOR = 8


@dataclass(frozen=True)
class SimulationGrid:
    """Uniform grid with step h = horizon / steps, divisibility enforced."""

    h: float
    steps: int
    horizon: float

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigurationError(f"steps must be >= 1, got {self.steps}")
        if not self.horizon > 0:
            raise ConfigurationError(f"horizon must be positive, got {self.horizon}")
        if abs(self.h * self.steps - self.horizon) > 1e-12 * self.horizon:
            raise ConfigurationError(
                f"step size {self.h} times {self.steps} steps misses horizon {self.horizon}"
            )

    @classmethod
    def from_steps(cls, horizon: float, steps: int) -> "SimulationGrid":
        return cls(h=horizon / steps, steps=steps, horizon=horizon)

    @classmethod
    def from_step_size(cls, horizon: float, h: float) -> "SimulationGrid":
        steps = round(horizon / h)
        if steps < 1 or abs(h * steps - horizon) > 1e-12 * horizon:
            raise ConfigurationError(f"step size {h} does not divide horizon {horizon}")
        return cls(h=h, steps=steps, horizon=horizon)

    def times(self) -> np.ndarray:
        return self.h * np.arange(self.steps + 1)


@dataclass
class PathRecord:
    """Grid times, stored clouds, and the exact count of scalar draws."""

    times: np.ndarray
    clouds: list[ParticleCloud]
    rng_draws: int


def em_step(model: ModelSpec, cloud: ParticleCloud, h: float, gaussians: np.ndarray) -> ParticleCloud:
    """One synchronous explicit step of size h driven by the given variates.

    ``gaussians`` holds the i.i.d. standard normal block, one row of
    ``d_bar`` components per particle; the Brownian increment over the step
    is ``sqrt(h) * gaussians``.
    """
    xi = np.asarray(gaussians, dtype=float)
    if xi.ndim == 1:
        xi = xi[:, None]
    return ParticleCloud._wrap(advance(model, cloud.positions, h, math.sqrt(h), xi))


def advance(model: ModelSpec, x: np.ndarray, h_drift: float, sqrt_dt: float,
            xi: np.ndarray) -> np.ndarray:
    """The checked explicit step ``x + f h_drift + epsilon sqrt_dt g xi``.

    Every fine and coarse update goes through here, so all of them get the
    same shape checks, the drift-then-diffusion finiteness checks and the
    divergence check, in that order. ``x`` holds the states of one (M, d)
    system or a (..., M, d) stack of independent ones, each moved against
    its own measure; ``xi`` is a float (..., M, d_bar) array of the same
    stacking. Returns the new states, a fresh array of the shape of ``x``.

    This is the library's one quiet retry: where numpy raises inside the
    coefficients or the update (``np.errstate(all="raise")`` or warnings as
    errors), both are evaluated again with numpy's errors ignored, so an
    overflow fails the checks below and an underflow does not.
    """
    expected = x.shape[:-1] + (model.d_bar,)
    if xi.shape != expected:
        raise ShapeError(f"gaussians have shape {xi.shape}, expected {expected}")
    if x.shape[-1] != model.d:
        raise ShapeError(f"state dimension {x.shape[-1]} does not match model d={model.d}")
    scale = model.epsilon * sqrt_dt
    try:
        f, g, new, ok = _update(model, x, xi, h_drift, scale)
    except (FloatingPointError, RuntimeWarning):
        with np.errstate(all="ignore"):
            f, g, new, ok = _update(model, x, xi, h_drift, scale)
    # Every coefficient entry enters the new state, so a non-finite one
    # always fails the scan: the coefficients need checking, drift first,
    # only when it fails.
    if not ok:
        _check_finite(f, "drift")
        _check_finite(g, "diffusion")
        raise DivergenceError("particle state left the finite trust region")
    return new


def _update(model, x, xi, h_drift, scale):
    """The coefficients at ``x``, the new state, and whether it passes one
    scan, which NaN fails too."""
    f, g = coefficients(model, x)
    new = x + f * h_drift + scale * np.einsum("...ij,...j->...i", g, xi)
    return f, g, new, np.abs(new).max() <= DIVERGENCE_LIMIT


def _walk(model: ModelSpec, cloud: ParticleCloud, h: float, blocks):
    """Yield the cloud after each ``em_step`` of size h, one per noise block.

    Every per-system Euler path is this loop. A ``DivergenceError`` is
    re-raised with the index of the step that raised it.
    """
    for n, xi in enumerate(blocks):
        try:
            cloud = em_step(model, cloud, h, xi)
        except DivergenceError as err:
            raise DivergenceError(str(err), step_index=n) from None
        yield cloud


def _last(clouds):
    """The final cloud of a ``_walk``, holding only one at a time."""
    for cloud in clouds:
        pass
    return cloud


def simulate_path(model: ModelSpec, grid: SimulationGrid, m_particles: int,
                  seed: int) -> PathRecord:
    """Simulate one particle system from the all-x0 cloud over the full grid.

    Deterministic in (model, grid, m_particles, seed).
    """
    if m_particles < 1:
        raise ConfigurationError("m_particles must be >= 1")
    xi = stream(seed, DOMAIN_PATH, 0).standard_normal((grid.steps, m_particles, model.d_bar))
    start = model.start(m_particles)
    return PathRecord(times=grid.times(), clouds=[start, *_walk(model, start, grid.h, xi)],
                      rng_draws=m_particles * model.d_bar * grid.steps)


def ode_limit(model: ModelSpec, grid: SimulationGrid) -> np.ndarray:
    """Explicit Euler iterates of the zero-noise flow, on the same grid.

    This is the one-particle path of the model at epsilon = 0: each step
    evaluates the drift at the current iterate against the point mass
    sitting there, and no randomness is consumed. Returns an array of shape
    (steps + 1, d).
    """
    flow = model.with_epsilon(0.0)
    noise = np.zeros((grid.steps, 1, model.d_bar))
    path = _walk(flow, flow.start(1), grid.h, noise)
    return np.stack([model.x0, *(cloud.positions[0] for cloud in path)])


def check_nested_steps(h_list: list[float]):
    """Require the step family to be nested: each step an integer multiple
    of every finer one (that is what lets them share increments), and no
    step given twice."""
    ordered = sorted(h_list, reverse=True)
    for coarse, fine in zip(ordered, ordered[1:]):
        ratio = coarse / fine
        if abs(ratio - round(ratio)) > 1e-9:
            raise ConfigurationError(
                f"h list not nested: steps {coarse} and {fine} are not integer multiples"
            )
        if round(ratio) == 1:
            raise ConfigurationError(f"h list repeats the step {fine}")


def strong_error_curve(model: ModelSpec, h_list: list[float], m_particles: int,
                       replications: int, seed: int, ref_factor: int = DEFAULT_REF_FACTOR,
                       test_fn: TestFunction | None = None) -> list[tuple[float, float]]:
    """Terminal mean-square gap between each step size and a fine reference.

    All paths share Brownian increments: the step-h path consumes sums of
    the reference increments over its sub-intervals, so the reference run
    stands in for the exact solution. Returns (h, mse) pairs in the input
    order, with the squared observable gap averaged over particles and
    replications.
    """
    if replications < 2:
        raise ConfigurationError("strong_error_curve needs replications >= 2")
    if ref_factor != int(ref_factor) or ref_factor < 2:
        raise ConfigurationError(f"ref_factor must be an integer >= 2, got {ref_factor}")
    psi = (test_fn or builtin_test_function("identity")).psi
    # nested steps and an integer ref_factor make every h a multiple of h_ref
    check_nested_steps(h_list)
    h_ref = min(h_list) / ref_factor
    grid_ref = SimulationGrid.from_step_size(model.horizon, h_ref)
    for h in h_list:
        SimulationGrid.from_step_size(model.horizon, h)
    start = model.start(m_particles)
    acc = {h: 0.0 for h in h_list}
    for rep in range(replications):
        gen = stream(seed, DOMAIN_STRONG_ERROR, rep)
        xi_ref = gen.standard_normal((grid_ref.steps, m_particles, model.d_bar))
        psi_ref = psi(_last(_walk(model, start, h_ref, xi_ref)).positions)
        for h in h_list:
            # the step-h path takes the scaled sums of r reference increments
            r = round(h / h_ref)
            blocks = (xi_ref.reshape(-1, r, m_particles, model.d_bar).sum(axis=1)
                      * (1.0 / np.sqrt(r)))
            gap = psi(_last(_walk(model, start, h, blocks)).positions) - psi_ref
            acc[h] += float(sorted_mean(gap**2))
    return [(h, acc[h] / replications) for h in h_list]


def small_noise_curve(model: ModelSpec, epsilon_list: list[float], grid: SimulationGrid,
                      m_particles: int, replications: int, seed: int) -> list[tuple[float, float]]:
    """Pathwise mean-square deviation from the zero-noise Euler flow per epsilon.

    For each noise scale the statistic is E[max_n |Y_i(t_n) - z(t_n)|^2],
    averaged over particles, then over replications. The same increments
    drive every epsilon (common random numbers): each replication draws its
    block once, so for models whose deviation is linear in the noise the
    fitted slope is exact.
    """
    z_path = ode_limit(model, grid)
    models = [model.with_epsilon(eps) for eps in epsilon_list]
    totals = [0.0] * len(models)
    for rep in range(replications):
        xi = stream(seed, DOMAIN_SMALL_NOISE, rep).standard_normal(
            (grid.steps, m_particles, model.d_bar))
        for i, model_eps in enumerate(models):
            sup = np.zeros(m_particles)
            for cloud, z in zip(_walk(model_eps, model_eps.start(m_particles), grid.h, xi),
                                z_path[1:]):
                dev = np.sum((cloud.positions - z) ** 2, axis=1)
                np.maximum(sup, dev, out=sup)
            totals[i] += float(sorted_mean(sup))
    return [(eps, total / replications) for eps, total in zip(epsilon_list, totals)]
