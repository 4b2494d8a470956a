"""Coupled fine/coarse level pairs and the multilevel estimator.

Level l pairs a fine system (step h_l = T N^-l) with a coarse system
(step h_{l-1} = T N^-(l-1)) driven by the same Gaussian increments: over
each coarse interval the fine system takes N sub-steps with fresh blocks
xi_0..xi_{N-1}, and the coarse system takes one step whose noise term is
``epsilon * sqrt(h_l) * g * sum_k xi_k``, coefficients frozen at the start
of the interval. Each system keeps its own empirical measure.

The sampling unit everywhere is one independent particle system of M
particles; the observable is averaged within a system, and systems are
i.i.d. across the per-level sample index. Cost is counted as the number of
scalar Gaussian draws: the coarse path reuses the fine draws, so one level-l
sample costs M * d_bar * N^l (one step of size T at level 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DivergenceError, ShapeError
from .measure import ParticleCloud, sorted_mean
from .model import ModelSpec, TestFunction, builtin_test_function
# em_step stays bound here: the benchmark's absent-layer check deletes it from this module
from .em_engine import (advance, em_step, SimulationGrid, strong_error_curve,  # noqa: F401
                        _last, _walk)
from .parallel import ordered_map
from .rng import (
    DOMAIN_CHAOS,
    DOMAIN_LEVEL_PAIR,
    DOMAIN_LEVEL_ZERO,
    DOMAIN_PSI_VARIANCE,
    keys,
    rekey,
    stream,
)

#: default depth cap for the adaptive estimator
DEFAULT_MAX_LEVEL = 8
#: default number of pilot systems per level
DEFAULT_PILOT_SAMPLES = 32
#: noise bytes of the level-pair samples stepped together as one chunk
CHUNK_NOISE_BYTES = 1 << 18
#: default grid steps of the chaos study
DEFAULT_CHAOS_STEPS = 64


@dataclass(frozen=True)
class LevelConfig:
    """Geometry of one level pair; step counts are integers by construction.

    Level 0 has no coarse path, so its coarse geometry is a ``ConfigurationError``.
    """

    refinement_n: int
    level: int
    horizon: float

    def __post_init__(self):
        if self.refinement_n < 2:
            raise ConfigurationError(f"refinement_n must be >= 2, got {self.refinement_n}")
        if self.level < 0:
            raise ConfigurationError(f"level must be >= 0, got {self.level}")
        if not self.horizon > 0:
            raise ConfigurationError(f"horizon must be positive, got {self.horizon}")

    @property
    def fine_steps(self) -> int:
        return self.refinement_n**self.level

    @property
    def coarse_steps(self) -> int:
        if self.level == 0:
            raise ConfigurationError("level 0 has no coarse path")
        return self.refinement_n ** (self.level - 1)

    @property
    def h_fine(self) -> float:
        return self.horizon / self.fine_steps

    @property
    def h_coarse(self) -> float:
        return self.horizon / self.coarse_steps


@dataclass
class LevelStatistics:
    level: int
    samples: int
    mean_diff: float
    var_diff: float
    rng_cost: int


@dataclass
class MlmcReport:
    estimate: float
    per_level: list[LevelStatistics]
    total_cost: int
    target_delta: float
    allocation: list[int]
    flags: list[str] = field(default_factory=list)


def cost_per_sample(cfg: LevelConfig, m_particles: int, d_bar: int) -> int:
    """Scalar Gaussian draws one sample consumes: M * d_bar * N^level."""
    return m_particles * d_bar * cfg.refinement_n**cfg.level


def coupled_coarse_interval(model: ModelSpec, fine: ParticleCloud, coarse: ParticleCloud,
                            cfg: LevelConfig,
                            gaussians: np.ndarray) -> tuple[ParticleCloud, ParticleCloud]:
    """Advance a fine and a coarse system across one coarse interval.

    ``gaussians`` holds the N standard-normal sub-step blocks, shape
    (N, M, d_bar). The fine system consumes them one by one; the coarse
    system consumes their sum, scaled by sqrt(h_fine), in a single step
    with drift and diffusion frozen at the interval start. Both start from
    ``model.start(M)`` on the first interval; returns the new (fine, coarse).
    Level 0, which has no coarse path, is a ``ConfigurationError``.
    """
    h_coarse = cfg.h_coarse
    n_ref = cfg.refinement_n
    xi = np.asarray(gaussians, dtype=float)
    m = fine.m
    if xi.shape != (n_ref, m, model.d_bar):
        raise ShapeError(
            f"gaussians have shape {xi.shape}, expected {(n_ref, m, model.d_bar)}"
        )
    fine = _last(_walk(model, fine, cfg.h_fine, xi))
    coarse = advance(model, coarse.positions, h_coarse, math.sqrt(cfg.h_fine), xi.sum(axis=0))
    return fine, ParticleCloud._wrap(coarse)


def _coupled_pairs(model: ModelSpec, cfg: LevelConfig,
                   xi: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Terminal fine and coarse states, each (K, M, d), of K level-l pairs.

    ``xi`` holds each sample's step-major noise block, (K, fine_steps, M,
    d_bar) or (K, coarse_steps, N, M, d_bar). Every fine path takes one
    ``em_step`` per fine step. Level 0 has no coarse path (None); otherwise
    the K coarse paths advance together, one stacked step per coarse
    interval, with the same arithmetic per system as ``coupled_coarse_interval``.
    A ``DivergenceError`` carries the index of the fine or coarse step that
    raised it and names that path.
    """
    k, m = xi.shape[0], xi.shape[-2]
    start = model.start(m)
    fine = np.empty((k, m, model.d))
    try:
        for j in range(k):
            blocks = xi[j].reshape(-1, m, model.d_bar)
            fine[j] = _last(_walk(model, start, cfg.h_fine, blocks)).positions
    except DivergenceError as err:
        raise DivergenceError(str(err), err.step_index, "fine") from None
    if cfg.level == 0:
        return fine, None
    coarse = np.broadcast_to(start.positions, (k, m, model.d))
    increments = xi.reshape(k, cfg.coarse_steps, cfg.refinement_n, m, model.d_bar).sum(axis=2)
    sqrt_h = math.sqrt(cfg.h_fine)
    for n in range(cfg.coarse_steps):
        try:
            coarse = advance(model, coarse, cfg.h_coarse, sqrt_h, increments[:, n])
        except DivergenceError as err:
            raise DivergenceError(str(err), n, "coarse") from None
    return fine, coarse


def _level_pairs(model: ModelSpec, cfg: LevelConfig, m_particles: int, seed: int,
                 first: int, count: int):
    """Yield the terminal (fine, coarse) stacks of samples ``first ..
    first+count-1``, chunk by chunk, in index order; at level 0 the coarse
    stack is None.

    A chunk holds as many samples as fit ``CHUNK_NOISE_BYTES`` of noise (at
    least one). The range's keys are mixed in one pass; each sample re-keys
    one ``stream`` generator to its own stream and draws its whole block in
    one call, so the bits do not depend on the chunk size.
    """
    domain = DOMAIN_LEVEL_PAIR if cfg.level else DOMAIN_LEVEL_ZERO
    shape = (cfg.fine_steps, m_particles, model.d_bar)
    size = max(1, CHUNK_NOISE_BYTES // (8 * math.prod(shape)))
    sample_keys = keys(seed, domain, cfg.level, first, count=count)
    gen = stream(seed, domain, cfg.level, first)
    for lo in range(0, count, size):
        xi = np.empty((min(size, count - lo),) + shape)
        for j, key in enumerate(sample_keys[lo:lo + size]):
            rekey(gen, key).standard_normal(out=xi[j])
        yield _coupled_pairs(model, cfg, xi)


def simulate_level_pair(model: ModelSpec, cfg: LevelConfig, m_particles: int,
                        test_fn: TestFunction, seed: int,
                        sample_index: int = 0) -> tuple[float, float, int]:
    """One independent level-l sample.

    Returns the system average of Psi(fine) - Psi(coarse) at the horizon,
    the fine-only system average, and the exact draw count M * d_bar * N^l.
    Level 0 has no coarse system (its term is zero), so there the two
    averages are the same one-step value.
    """
    fine, coarse = next(_level_pairs(model, cfg, m_particles, seed, sample_index, 1))
    psi_f = test_fn.psi(fine[0])
    mean_fine = float(sorted_mean(psi_f))
    diff = mean_fine if coarse is None else float(sorted_mean(psi_f - test_fn.psi(coarse[0])))
    return diff, mean_fine, cost_per_sample(cfg, m_particles, model.d_bar)


def _level_samples(model: ModelSpec, cfg: LevelConfig, m_particles: int,
                   test_fn: TestFunction, seed: int, first: int, count: int) -> np.ndarray:
    """Per-system observable samples ``first .. first+count-1`` at one level.

    Level 0 yields plain system averages, levels >= 1 fine-coarse
    differences. Stream keys depend only on (seed, level, sample index), so
    extending a sample set never reshuffles earlier samples.
    """
    chunks = [sorted_mean(test_fn.psi(fine) if coarse is None
                          else test_fn.psi(fine) - test_fn.psi(coarse), axis=-1)
              for fine, coarse in _level_pairs(model, cfg, m_particles, seed, first, count)]
    return np.concatenate(chunks) if chunks else np.empty(0)


def _level_rows(study: str, row: type, model: ModelSpec, levels: list[int], refinement_n: int,
                m_particles: int, replications: int,
                stat: Callable[[LevelConfig], dict]) -> list:
    """One ``row`` per level of a coupled-level study, in order: its level,
    coarse step, sample count and draw count, and the fields ``stat(cfg)``
    returns for that level."""
    if any(l < 1 for l in levels):
        raise ConfigurationError(f"{study} requires levels >= 1")
    rows = []
    for level in levels:
        cfg = LevelConfig(refinement_n, level, model.horizon)
        rows.append(row(level=level, h_coarse=cfg.h_coarse, samples=replications,
                        rng_cost=replications * cost_per_sample(cfg, m_particles, model.d_bar),
                        **stat(cfg)))
    return rows


@dataclass
class LevelVarianceRow:
    level: int
    h_coarse: float
    var_diff: float
    ci_halfwidth: float
    mean_diff: float
    samples: int
    rng_cost: int


def coupled_variance_study(model: ModelSpec, levels: list[int], refinement_n: int,
                           m_particles: int, replications: int, test_fn: TestFunction,
                           seed: int) -> list[LevelVarianceRow]:
    """Sample variance of the coupled observable difference per level.

    The half-width is the normal approximation for a sample variance,
    z_0.95 * sqrt((m4 - s^4) / n) with m4 the fourth central moment.
    """
    def stat(cfg: LevelConfig) -> dict:
        xs = _level_samples(model, cfg, m_particles, test_fn, seed, 0, replications)
        var = float(xs.var(ddof=1)) if replications > 1 else 0.0
        centered = xs - xs.mean()
        m4 = float(np.mean(centered**4))
        hw = 1.959963984540054 * math.sqrt(max(m4 - var**2, 0.0) / replications)
        return {"var_diff": var, "ci_halfwidth": hw, "mean_diff": float(xs.mean())}

    return _level_rows("coupled_variance_study", LevelVarianceRow, model, levels, refinement_n,
                       m_particles, replications, stat)


@dataclass
class SecondMomentRow:
    level: int
    h_coarse: float
    second_moment: float
    samples: int
    rng_cost: int


def second_moment_study(model: ModelSpec, levels: list[int], refinement_n: int,
                        m_particles: int, replications: int, seed: int) -> list[SecondMomentRow]:
    """Mean squared fine-coarse state gap |Y_fine(T) - Y_coarse(T)|^2 per level."""
    def stat(cfg: LevelConfig) -> dict:
        vals = np.concatenate([
            sorted_mean(np.sum((fine - coarse) ** 2, axis=-1), axis=-1)
            for fine, coarse in _level_pairs(model, cfg, m_particles, seed, 0, replications)])
        return {"second_moment": float(vals.mean())}

    return _level_rows("second_moment_study", SecondMomentRow, model, levels, refinement_n,
                       m_particles, replications, stat)


def mlmc_estimate(model: ModelSpec, test_fn: TestFunction, target_delta: float,
                  refinement_n: int, m_particles: int,
                  pilot_samples: int = DEFAULT_PILOT_SAMPLES,
                  max_level: int = DEFAULT_MAX_LEVEL, seed: int = 0) -> MlmcReport:
    """Adaptive multilevel estimate of E[Psi at the horizon].

    Pilot systems estimate the per-level variance V_l; the hierarchy deepens
    until the bias proxy |mean_diff_L| / (N - 1) falls below delta / sqrt(2)
    (the deepest difference stands in for the truncated tail under
    first-order weak decay) or ``max_level`` is reached, in which case the
    report is flagged ``bias_unconverged``. Samples are then topped up to

        K_l = ceil(delta^-2 sqrt(V_l / C_l) * sum_m sqrt(V_m C_m))

    with C_l the per-sample draw count; when every pilot variance is zero
    the allocation degenerates to the pilot sizes. The estimate is the plain
    telescoped sum of per-level means with no reweighting.

    Accuracy contract: MSE <= 1.5 delta^2. The allocation bounds the
    variance by delta^2 (Giles's 2 delta^-2 would give delta^2 / 2) and the
    bias proxy bounds the squared bias by delta^2 / 2.
    """
    if target_delta <= 0:
        raise ConfigurationError("target_delta must be positive")
    if pilot_samples < 2:
        raise ConfigurationError("pilot_samples must be >= 2")
    if max_level < 1:
        raise ConfigurationError("max_level must be >= 1")

    cfgs: list[LevelConfig] = []
    samples: list[np.ndarray] = []

    def pilot():
        cfgs.append(LevelConfig(refinement_n, len(cfgs), model.horizon))
        samples.append(_level_samples(model, cfgs[-1], m_particles, test_fn, seed,
                                      0, pilot_samples))

    pilot()
    pilot()
    flags: list[str] = []
    bias_budget = target_delta / math.sqrt(2.0)
    while abs(float(samples[-1].mean())) / (refinement_n - 1) > bias_budget:
        if len(cfgs) > max_level:
            flags.append("bias_unconverged")
            break
        pilot()

    costs = [cost_per_sample(cfg, m_particles, model.d_bar) for cfg in cfgs]
    variances = [float(xs.var(ddof=1)) for xs in samples]
    if all(v <= 0.0 for v in variances):
        allocation = [pilot_samples] * len(cfgs)
    else:
        weight = sum(math.sqrt(v * c) for v, c in zip(variances, costs))
        allocation = [max(math.ceil(target_delta**-2 * math.sqrt(v / c) * weight), pilot_samples)
                      for v, c in zip(variances, costs)]

    for l, cfg in enumerate(cfgs):
        extra = allocation[l] - len(samples[l])
        if extra > 0:
            more = _level_samples(model, cfg, m_particles, test_fn, seed, len(samples[l]), extra)
            samples[l] = np.concatenate([samples[l], more])

    per_level = [LevelStatistics(level=l, samples=len(xs), mean_diff=float(xs.mean()),
                                 var_diff=float(xs.var(ddof=1)), rng_cost=len(xs) * costs[l])
                 for l, xs in enumerate(samples)]
    estimate = float(sum(row.mean_diff for row in per_level))
    total_cost = int(sum(row.rng_cost for row in per_level))
    return MlmcReport(
        estimate=estimate,
        per_level=per_level,
        total_cost=total_cost,
        target_delta=target_delta,
        allocation=allocation,
        flags=flags,
    )


@dataclass
class CostCompareRow:
    delta: float
    epsilon: float
    mc_cost: int
    mlmc_cost: int
    mc_steps: int
    mlmc_levels: int


def _psi_system_variance(model: ModelSpec, steps: int, m_particles: int,
                         test_fn: TestFunction, seed: int, replications: int) -> float:
    """Variance of the system-averaged observable for plain fixed-step runs."""
    grid = SimulationGrid.from_steps(model.horizon, steps)
    start = model.start(m_particles)
    vals = []
    for rep in range(replications):
        xi = stream(seed, DOMAIN_PSI_VARIANCE, rep).standard_normal(
            (grid.steps, m_particles, model.d_bar))
        cloud = _last(_walk(model, start, grid.h, xi))
        vals.append(float(sorted_mean(test_fn.psi(cloud.positions))))
    return float(np.var(np.array(vals), ddof=1))


def cost_compare(model: ModelSpec, test_fn: TestFunction, delta_list: list[float],
                 epsilon_list: list[float], refinement_n: int, m_particles: int,
                 pilot_samples: int = DEFAULT_PILOT_SAMPLES,
                 max_level: int = DEFAULT_MAX_LEVEL, seed: int = 0) -> list[CostCompareRow]:
    """Draw-count comparison of single-level MC against the multilevel estimator.

    The multilevel cost is the total recorded by ``mlmc_estimate``. The MC
    comparator is the closed-form count samples * M * d_bar * steps for a
    single-level run whose step keeps the root mean-square discretization
    error under delta / sqrt(2) (constant calibrated from a small coupled
    pilot sweep against a fine reference, fitted to C (h^2 + h eps^2)) and
    whose sample count is ceil(Var(Psi) / delta^2). Nothing beyond the
    calibration pilots is simulated for the comparator.
    """
    rows = []
    for eps in epsilon_list:
        m_eps = model.with_epsilon(eps)
        h_cal = model.horizon / refinement_n**3
        mse_cal = strong_error_curve(m_eps, [h_cal], m_particles, pilot_samples, seed,
                                     test_fn=test_fn)[0][1]
        c_fit = mse_cal / (h_cal**2 + h_cal * eps**2) if mse_cal > 0 else 0.0
        var_psi = _psi_system_variance(m_eps, refinement_n**4, m_particles, test_fn,
                                       seed, max(pilot_samples, 8))
        for delta in delta_list:
            if c_fit > 0:
                # solve C h^2 + C eps^2 h = delta^2 / 2 for the largest usable h
                h_star = (-(eps**2) + math.sqrt(eps**4 + 2.0 * delta**2 / c_fit)) / 2.0
                h_star = min(h_star, model.horizon)
                mc_steps = max(1, math.ceil(model.horizon / h_star))
            else:
                mc_steps = 1
            mc_samples = max(1, math.ceil(var_psi / delta**2)) if var_psi > 0 else 1
            mc_cost = mc_samples * m_particles * model.d_bar * mc_steps
            report = mlmc_estimate(m_eps, test_fn, delta, refinement_n, m_particles,
                                   pilot_samples, max_level, seed)
            rows.append(CostCompareRow(
                delta=delta,
                epsilon=eps,
                mc_cost=int(mc_cost),
                mlmc_cost=report.total_cost,
                mc_steps=mc_steps,
                mlmc_levels=len(report.per_level) - 1,
            ))
    return rows


@dataclass
class ChaosRow:
    m_particles: int
    mse_vs_reference: float
    replications: int


def chaos_study(model: ModelSpec, m_list: list[int], reference_m: int, replications: int,
                seed: int, test_fn: TestFunction | None = None,
                steps: int = DEFAULT_CHAOS_STEPS, pathwise: bool = False) -> list[ChaosRow]:
    """Convergence of the M-particle system toward a large reference system.

    Default mode compares system-averaged observables of an M-particle
    system and an independent reference system with ``reference_m``
    particles, reporting the mean squared gap per M. ``pathwise`` instead
    couples the first M particle streams of both systems and reports the
    per-particle supremum gap along the grid (no rate is asserted for it).
    Each replication walks its reference system once, in lockstep with the
    small system of every M.
    """
    if reference_m <= max(m_list):
        raise ConfigurationError("reference_m must exceed every entry of m_list")
    test_fn = test_fn or builtin_test_function("identity")
    grid = SimulationGrid.from_steps(model.horizon, steps)

    def one(rep: int) -> list[float]:
        xi_ref = stream(seed, DOMAIN_CHAOS, rep, 0).standard_normal(
            (grid.steps, reference_m, model.d_bar))
        if pathwise:
            # shared leading streams couple particle i across both systems
            xis = [xi_ref[:, :m] for m in m_list]
        else:
            # every M draws the head of one stream, independent of the reference
            xis = [stream(seed, DOMAIN_CHAOS, rep, 1).standard_normal((grid.steps, m, model.d_bar))
                   for m in m_list]
        paths = [_walk(model, model.start(m), grid.h, xi) for m, xi in zip(m_list, xis)]
        sups = [np.zeros(m) for m in m_list]
        for ref, *smalls in zip(_walk(model, model.start(reference_m), grid.h, xi_ref), *paths):
            if pathwise:
                for sup, small in zip(sups, smalls):
                    gap = np.sum((small.positions - ref.positions[:len(sup)]) ** 2, axis=1)
                    np.maximum(sup, gap, out=sup)
        if pathwise:
            return [float(sorted_mean(sup)) for sup in sups]
        b = float(sorted_mean(test_fn.psi(ref.positions)))
        return [(float(sorted_mean(test_fn.psi(small.positions))) - b) ** 2 for small in smalls]

    vals = ordered_map(one, range(replications))
    return [ChaosRow(m_particles=m, mse_vs_reference=float(np.mean([v[i] for v in vals])),
                     replications=replications) for i, m in enumerate(m_list)]
