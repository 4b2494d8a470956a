"""Single-level particle-system simulation and its deterministic limit.

One explicit step advances every particle against the empirical measure of
the *input* states (the measure is frozen before any particle moves), adding
``drift * h + epsilon * diffusion @ (sqrt(h) * xi)`` per particle. Driving
noise is always supplied by the caller as standard-normal arrays so that
fine and coarse discretizations of the same path can share increments.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DivergenceError, ShapeError, blame
from .measure import ParticleCloud, sorted_mean
from .model import (DIVERGENCE_LIMIT, ModelSpec, TestFunction, builtin_test_function,
                    coefficients, integer, nonempty, positive)
from .rng import (DOMAIN_PATH, DOMAIN_SMALL_NOISE, DOMAIN_STRONG_ERROR, MAX_STREAMS, stream,
                  streams)

#: reference grid is finer than the smallest requested step by this factor
DEFAULT_REF_FACTOR = 8
#: the most steps one path may take
MAX_STEPS = 2**24
#: the most floats one (steps, M, d_bar) noise block may hold, 1 GiB of float64
MAX_NOISE_FLOATS = 2**27


def check_steps(steps, path: str):
    """A ``ConfigurationError`` naming ``path`` when it takes more than ``MAX_STEPS`` steps."""
    if steps > MAX_STEPS:
        raise ConfigurationError(f"{path} takes more than the {MAX_STEPS} steps a path may take")


def noise_block(steps: int, m_particles: int, d_bar: int, path: str,
                field: str = "m_particles") -> tuple[int, int, int]:
    """The shape (steps, M, d_bar) of the noise ``path`` draws in one call; a
    ``ConfigurationError`` blaming ``field`` unless M is an integer >= 1 and the
    block holds at most ``MAX_NOISE_FLOATS`` floats. Every draw site calls it."""
    m_particles = integer(m_particles, 1, field)
    if steps * m_particles * d_bar > MAX_NOISE_FLOATS:
        raise ConfigurationError(
            f"the noise block of {path}, {steps} x {m_particles} x {d_bar} floats, holds more "
            f"than the {MAX_NOISE_FLOATS} floats a block may hold", field)
    return steps, m_particles, d_bar


def step_count(horizon: float, h: float) -> int:
    """The number of steps of size h to the horizon; a ``ConfigurationError``
    unless h is a positive finite number that divides it in at most
    ``MAX_STEPS`` steps."""
    positive(h, None, "step size")
    check_steps(horizon / h, f"step size {h} on horizon {horizon}")
    steps = round(horizon / h)
    if steps < 1 or abs(h * steps - horizon) > 1e-12 * horizon:
        raise ConfigurationError(f"step size {h} does not divide horizon {horizon}")
    return steps


@dataclass
class PathRecord:
    """Grid times, the (steps + 1, M, d) states at them, and the scalar draw count."""

    times: np.ndarray
    states: np.ndarray
    rng_draws: int


def em_step(model: ModelSpec, cloud: ParticleCloud, h: float, gaussians: np.ndarray) -> ParticleCloud:
    """One synchronous explicit step of size h driven by the given variates.

    ``gaussians`` holds the i.i.d. standard normal block, one row of
    ``d_bar`` components per particle; the Brownian increment over the step
    is ``sqrt(h) * gaussians``.
    """
    new = advance(model, cloud.positions, h, math.sqrt(h), np.asarray(gaussians, dtype=float))
    new.setflags(write=False)
    return ParticleCloud._wrap(new)


def advance(model: ModelSpec, x: np.ndarray, h_drift: float, sqrt_dt: float,
            xi: np.ndarray) -> np.ndarray:
    """The checked explicit step ``x + f h_drift + epsilon sqrt_dt g xi``.

    Every fine and coarse update goes through here, so all of them get the
    same shape check, then the drift, diffusion and state checks, each a
    ``DivergenceError`` when it fails. ``x`` holds the states of one (M, d)
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
        for label, arr in (("drift", f), ("diffusion", g)):
            if len(bad := np.argwhere(~np.isfinite(arr))):
                raise DivergenceError(f"{label} produced a non-finite value at component "
                                      f"{tuple(bad[0].tolist())}")
        raise DivergenceError("particle state left the finite trust region")
    return new


def _update(model, x, xi, h_drift, scale):
    """The coefficients at ``x``, the new state, and whether it passes one
    scan, which NaN fails too."""
    f, g = coefficients(model, x)
    new = x + f * h_drift + scale * np.einsum("...ij,...j->...i", g, xi)
    return f, g, new, np.abs(new).max() <= DIVERGENCE_LIMIT


def _walk(model: ModelSpec, x: np.ndarray, h: float, blocks):
    """Yield the read-only (M, d) states after each ``em_step`` of size h
    from ``x``, one step per noise block.

    Every per-system Euler path is this loop. A ``DivergenceError`` is
    re-raised with the index of the step that raised it.
    """
    cloud = ParticleCloud._wrap(x)
    for n, xi in enumerate(blocks):
        try:
            cloud = em_step(model, cloud, h, xi)
        except DivergenceError as err:
            raise DivergenceError(str(err), step_index=n) from None
        yield cloud.positions


def _last(states):
    """The final states of a ``_walk``, holding only one at a time."""
    for x in states:
        pass
    return x


def simulate_path(model: ModelSpec, h: float, m_particles: int, seed: int) -> PathRecord:
    """Simulate one particle system from the all-x0 states to the model's horizon.

    Deterministic in (model, h, m_particles, seed).
    """
    with blame("h"):
        steps = step_count(model.horizon, h)
    xi = stream(seed, DOMAIN_PATH, 0).standard_normal(
        noise_block(steps, m_particles, model.d_bar, "the path"))
    start = model.start(m_particles)
    states = np.empty((steps + 1,) + start.shape)
    states[0] = start
    for row, x in zip(states[1:], _walk(model, start, h, xi)):
        row[:] = x
    return PathRecord(times=h * np.arange(steps + 1), states=states,
                      rng_draws=m_particles * model.d_bar * steps)


def ode_limit(model: ModelSpec, h: float) -> np.ndarray:
    """Explicit Euler iterates of the zero-noise flow, to the model's horizon.

    This is the one-particle path of the model at epsilon = 0: each step
    evaluates the drift at the current iterate against the point mass
    sitting there, and no randomness is consumed. Returns an array of shape
    (steps + 1, d).
    """
    flow = model.with_epsilon(0.0)
    with blame("h"):
        steps = step_count(model.horizon, h)
    out = np.empty((steps + 1, model.d))
    out[0] = model.x0
    # one zero noise row serves every step, so only the output is held
    for row, x in zip(out[1:], _walk(flow, flow.start(1), h,
                                     itertools.repeat(np.zeros((1, model.d_bar)), steps))):
        row[:] = x[0]
    return out


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


def strong_error_grid(model: ModelSpec, h_list: list[float], m_particles: int, replications: int,
                      ref_factor: int = DEFAULT_REF_FACTOR) -> tuple[int, int, int]:
    """The preflight of ``strong_error_curve``: the noise block of its reference
    grid, ``ref_factor`` times the steps of the finest h, counted as an integer
    before any step is formed."""
    integer(replications, 2, "replications", MAX_STREAMS)
    with blame("h_list"):
        for h in nonempty(h_list, "h_list"):
            step_count(model.horizon, h)
        # nested steps and an integer ref_factor make every h a multiple of h_ref
        check_nested_steps(h_list)
    steps = integer(ref_factor, 2, "ref_factor") * step_count(model.horizon, min(h_list))
    with blame("ref_factor"):
        check_steps(steps, "the reference grid")
    return noise_block(steps, m_particles, model.d_bar, "the reference grid")


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
    shape = strong_error_grid(model, h_list, m_particles, replications, ref_factor)
    psi = (test_fn or builtin_test_function("identity")).psi
    h_ref = min(h_list) / ref_factor
    start = model.start(m_particles)
    acc = {h: 0.0 for h in h_list}
    for gen in streams(seed, DOMAIN_STRONG_ERROR, 0, count=replications):
        xi_ref = gen.standard_normal(shape)
        psi_ref = psi(_last(_walk(model, start, h_ref, xi_ref)))
        for h in h_list:
            # the step-h path takes the scaled sums of r reference increments
            r = round(h / h_ref)
            blocks = (xi_ref.reshape(-1, r, m_particles, model.d_bar).sum(axis=1)
                      * (1.0 / np.sqrt(r)))
            gap = psi(_last(_walk(model, start, h, blocks))) - psi_ref
            acc[h] += float(sorted_mean(gap**2))
    return [(h, acc[h] / replications) for h in h_list]


def small_noise_grid(model: ModelSpec, epsilon_list: list[float], h: float, m_particles: int,
                     replications: int) -> tuple[tuple[int, int, int], list[ModelSpec]]:
    """The preflight of ``small_noise_curve``: the noise block of one replication
    and the model at each noise scale."""
    with blame("epsilon_list"):
        models = [model.with_epsilon(eps) for eps in nonempty(epsilon_list, "epsilon_list")]
    with blame("h"):
        steps = step_count(model.horizon, h)
    integer(replications, 1, "replications", MAX_STREAMS)
    return noise_block(steps, m_particles, model.d_bar, "a replication"), models


def small_noise_curve(model: ModelSpec, epsilon_list: list[float], h: float,
                      m_particles: int, replications: int, seed: int) -> list[tuple[float, float]]:
    """Pathwise mean-square deviation from the zero-noise Euler flow per epsilon.

    For each noise scale the statistic is E[max_n |Y_i(t_n) - z(t_n)|^2],
    averaged over particles, then over replications. The same increments
    drive every epsilon (common random numbers): each replication draws its
    block once, so for models whose deviation is linear in the noise the
    fitted slope is exact.
    """
    shape, models = small_noise_grid(model, epsilon_list, h, m_particles, replications)
    z_path = ode_limit(model, h)
    totals = [0.0] * len(models)
    for gen in streams(seed, DOMAIN_SMALL_NOISE, 0, count=replications):
        xi = gen.standard_normal(shape)
        for i, model_eps in enumerate(models):
            sup = np.zeros(m_particles)
            for x, z in zip(_walk(model_eps, model_eps.start(m_particles), h, xi), z_path[1:]):
                dev = np.sum((x - z) ** 2, axis=1)
                np.maximum(sup, dev, out=sup)
            totals[i] += float(sorted_mean(sup))
    return [(eps, total / replications) for eps, total in zip(epsilon_list, totals)]
