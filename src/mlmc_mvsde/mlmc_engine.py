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
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DivergenceError, ShapeError, blame
from .measure import sorted_mean
from .model import ModelSpec, TestFunction, builtin_test_function, integer, nonempty, positive
# em_step stays bound here: the benchmark's absent-layer check deletes it from this module
from .em_engine import (MAX_STEPS, advance, check_steps, em_step,  # noqa: F401
                        noise_block, strong_error_curve, strong_error_grid, _last, _walk)
from .parallel import ordered_map
from .rng import (
    DOMAIN_CHAOS,
    DOMAIN_LEVEL_PAIR,
    DOMAIN_LEVEL_ZERO,
    DOMAIN_PSI_VARIANCE,
    MAX_STREAMS,
    stream,
    streams,
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
    """Step counts of one level pair on the model's horizon T: N^level fine
    steps of T N^-level and N^(level-1) coarse steps of T N^-(level-1).

    Level 0 has no coarse path, so its coarse step count is a ``ConfigurationError``.
    """

    refinement_n: int
    level: int

    def __post_init__(self):
        # stored as ints: a numpy integer's power wraps past 2**63
        object.__setattr__(self, "refinement_n", integer(self.refinement_n, 2, "refinement_n"))
        object.__setattr__(self, "level", integer(self.level, 0, "level"))
        # N^level > MAX_STEPS past MAX_STEPS.bit_length() levels: a huge level builds no power
        check_steps(self.refinement_n ** min(self.level, MAX_STEPS.bit_length()),
                    f"level {self.level} at refinement_n {self.refinement_n}")

    @property
    def fine_steps(self) -> int:
        return self.refinement_n**self.level

    @property
    def coarse_steps(self) -> int:
        if self.level == 0:
            raise ConfigurationError("level 0 has no coarse path")
        return self.refinement_n ** (self.level - 1)


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


def _sample_block(model: ModelSpec, cfg: LevelConfig, m_particles: int) -> tuple[int, int, int]:
    """The noise block of one level-l sample, (N^l, M, d_bar)."""
    return noise_block(cfg.fine_steps, m_particles, model.d_bar, f"a level-{cfg.level} sample")


@contextmanager
def _on_path(path: str, step_index: int | None = None):
    """Label a ``DivergenceError`` of the block with ``path`` and, if given, ``step_index``."""
    try:
        yield
    except DivergenceError as err:
        step = err.step_index if step_index is None else step_index
        raise DivergenceError(str(err), step, path) from None


def coupled_coarse_interval(model: ModelSpec, fine: np.ndarray, coarse: np.ndarray,
                            cfg: LevelConfig,
                            gaussians: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Advance the (M, d) states of a fine and a coarse system across one coarse interval.

    ``gaussians`` holds the N standard-normal sub-step blocks, shape
    (N, M, d_bar). The fine system consumes them one by one; the coarse
    system consumes their sum, scaled by sqrt(h_fine), in a single step
    with drift and diffusion frozen at the interval start. Both start from
    ``model.start(M)`` on the first interval; returns the new read-only
    (fine, coarse). A ``DivergenceError`` names its path and the fine
    sub-step, or step 0 of the coarse path. Level 0 is a ``ConfigurationError``.
    """
    h_fine, h_coarse = model.horizon / cfg.fine_steps, model.horizon / cfg.coarse_steps
    xi = np.asarray(gaussians, dtype=float)
    expected = (cfg.refinement_n, fine.shape[-2], model.d_bar)
    if xi.shape != expected:
        raise ShapeError(f"gaussians have shape {xi.shape}, expected {expected}")
    with _on_path("fine"):
        fine = _last(_walk(model, fine, h_fine, xi))
    with _on_path("coarse", 0):
        coarse = advance(model, coarse, h_coarse, math.sqrt(h_fine), xi.sum(axis=0))
    coarse.setflags(write=False)
    return fine, coarse


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
    h_fine = model.horizon / cfg.fine_steps
    start = model.start(m)
    fine = np.empty((k, m, model.d))
    with _on_path("fine"):
        for j in range(k):
            fine[j] = _last(_walk(model, start, h_fine, xi[j].reshape(-1, m, model.d_bar)))
    if cfg.level == 0:
        return fine, None
    coarse = np.broadcast_to(start, (k, m, model.d))
    increments = xi.reshape(k, cfg.coarse_steps, cfg.refinement_n, m, model.d_bar).sum(axis=2)
    h_coarse, sqrt_h = model.horizon / cfg.coarse_steps, math.sqrt(h_fine)
    for n in range(cfg.coarse_steps):
        with _on_path("coarse", n):
            coarse = advance(model, coarse, h_coarse, sqrt_h, increments[:, n])
    return fine, coarse


def _level_pairs(model: ModelSpec, cfg: LevelConfig, m_particles: int, seed: int,
                 first: int, count: int):
    """Yield the terminal (fine, coarse) stacks of samples ``first ..
    first+count-1``, chunk by chunk, in index order; at level 0 the coarse
    stack is None.

    A chunk holds as many samples as fit ``CHUNK_NOISE_BYTES`` of noise (at
    least one). Each sample draws its whole block in one call from its own
    stream of the range's ``streams``, so the bits do not depend on the
    chunk size.
    """
    domain = DOMAIN_LEVEL_PAIR if cfg.level else DOMAIN_LEVEL_ZERO
    shape = _sample_block(model, cfg, m_particles)
    size = max(1, CHUNK_NOISE_BYTES // (8 * math.prod(shape)))
    gens = streams(seed, domain, cfg.level, first, count=count)
    for lo in range(0, count, size):
        xi = np.empty((min(size, count - lo),) + shape)
        for block in xi:
            next(gens).standard_normal(out=block)
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
    integer(sample_index, 0, "sample_index", MAX_STREAMS - 1)
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
                          else test_fn.psi(fine) - test_fn.psi(coarse))
              for fine, coarse in _level_pairs(model, cfg, m_particles, seed, first, count)]
    return np.concatenate(chunks) if chunks else np.empty(0)


def level_study_grid(model: ModelSpec, levels: list[int], refinement_n: int,
                     m_particles: int, replications: int) -> list[LevelConfig]:
    """The preflight of the coupled-level studies: each level's ``LevelConfig``,
    in order. It stops at the first bad level, so a long range is never read past it."""
    cfgs = []
    for level in nonempty(levels, "levels"):
        integer(level, 1, "levels", name="a coupled-level study's level")
        with blame("levels"):
            cfgs.append(LevelConfig(refinement_n, level))
        _sample_block(model, cfgs[-1], m_particles)
    integer(replications, 1, "replications", MAX_STREAMS)
    return cfgs


def _level_rows(row: type, model: ModelSpec, levels: list[int], refinement_n: int,
                m_particles: int, replications: int, stat: Callable[[LevelConfig], dict]) -> list:
    """One ``row`` per level of a coupled-level study, in order: its level,
    coarse step, sample count and draw count, and the fields ``stat(cfg)``
    returns for that level. The study's grid is checked before any level runs."""
    return [row(level=cfg.level, h_coarse=model.horizon / cfg.coarse_steps, samples=replications,
                rng_cost=replications * cost_per_sample(cfg, m_particles, model.d_bar),
                **stat(cfg))
            for cfg in level_study_grid(model, levels, refinement_n, m_particles, replications)]


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

    return _level_rows(LevelVarianceRow, model, levels, refinement_n, m_particles, replications,
                       stat)


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
            sorted_mean(np.sum((fine - coarse) ** 2, axis=-1))
            for fine, coarse in _level_pairs(model, cfg, m_particles, seed, 0, replications)])
        return {"second_moment": float(vals.mean())}

    return _level_rows(SecondMomentRow, model, levels, refinement_n, m_particles, replications,
                       stat)


def mlmc_grid(model: ModelSpec, target_delta: float, refinement_n: int, m_particles: int,
              pilot_samples: int, max_level: int):
    """The preflight of ``mlmc_estimate``. Its samples decide how deep a run goes,
    so each level past level 1, which every run reaches, is checked when the run
    reaches it, and so is every level's noise block; ``model`` is not read."""
    positive(target_delta, "target_delta")
    with blame("refinement_n"):
        LevelConfig(refinement_n, 1)
    integer(m_particles, 1, "m_particles")
    integer(pilot_samples, 2, "pilot_samples", MAX_STREAMS)
    integer(max_level, 1, "max_level")


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
    bias proxy bounds the squared bias by delta^2 / 2. An allocation past the
    ``MAX_STREAMS`` samples of a level is a ``ConfigurationError`` on ``target_delta``.
    """
    mlmc_grid(model, target_delta, refinement_n, m_particles, pilot_samples, max_level)
    cfgs: list[LevelConfig] = []
    samples: list[np.ndarray] = []

    def pilot():
        with blame("max_level"):  # a level past MAX_STEPS is one max_level let the run reach
            cfgs.append(LevelConfig(refinement_n, len(cfgs)))
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
        try:
            need = [target_delta**-2 * math.sqrt(v / c) * weight for v, c in zip(variances, costs)]
        except OverflowError:  # delta^-2 is past the floats
            need = [math.inf]
        if max(need) > MAX_STREAMS:
            raise ConfigurationError(f"target_delta {target_delta} needs more than the "
                                     f"{MAX_STREAMS} samples a level may draw", "target_delta")
        allocation = [max(math.ceil(k), pilot_samples) for k in need]

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


def _psi_system_variance(model: ModelSpec, shape: tuple[int, int, int], test_fn: TestFunction,
                         seed: int, replications: int) -> float:
    """Variance of the system-averaged observable for plain fixed-step runs,
    each driven by one (steps, M, d_bar) noise block of ``shape``."""
    h = model.horizon / shape[0]
    start = model.start(shape[1])
    vals = []
    for gen in streams(seed, DOMAIN_PSI_VARIANCE, 0, count=replications):
        xi = gen.standard_normal(shape)
        vals.append(float(sorted_mean(test_fn.psi(_last(_walk(model, start, h, xi))))))
    return float(np.var(np.array(vals), ddof=1))


def cost_compare_grid(model: ModelSpec, delta_list: list[float], epsilon_list: list[float],
                      refinement_n: int, m_particles: int, pilot_samples: int, max_level: int):
    """The preflight of ``cost_compare``: the noise block of its N^4-step variance
    pilot, checked after the calibration grid at h_cal = T N^-3, as the run draws
    them, and the model at each noise scale. The mlmc levels are checked when the
    run reaches them."""
    with blame("refinement_n"):
        check_steps(integer(refinement_n, 2, "refinement_n")**4,
                    f"the variance pilot at refinement_n {refinement_n}")
    for delta in nonempty(delta_list, "delta_list"):
        positive(delta, "delta_list", "a delta_list entry")
    with blame("epsilon_list"):
        models = [model.with_epsilon(eps) for eps in nonempty(epsilon_list, "epsilon_list")]
    integer(pilot_samples, 2, "pilot_samples", MAX_STREAMS)
    integer(max_level, 1, "max_level")
    strong_error_grid(model, [model.horizon / refinement_n**3], m_particles, pilot_samples)
    return noise_block(refinement_n**4, m_particles, model.d_bar, "the variance pilot"), models


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
    calibration pilots is simulated for the comparator. A delta whose comparator
    leaves the floats is a ``ConfigurationError`` on ``delta_list``.
    """
    pilot, models = cost_compare_grid(model, delta_list, epsilon_list, refinement_n, m_particles,
                                      pilot_samples, max_level)
    rows = []
    for eps, m_eps in zip(epsilon_list, models):
        h_cal = model.horizon / refinement_n**3
        mse_cal = strong_error_curve(m_eps, [h_cal], m_particles, pilot_samples, seed,
                                     test_fn=test_fn)[0][1]
        c_fit = mse_cal / (h_cal**2 + h_cal * eps**2) if mse_cal > 0 else 0.0
        var_psi = _psi_system_variance(m_eps, pilot, test_fn, seed, max(pilot_samples, 8))
        for delta in delta_list:
            try:
                if c_fit > 0:
                    # the root of C h^2 + C eps^2 h = delta^2 / 2, rationalised so
                    # that it does not cancel when q is small against eps^4
                    q = 2.0 * delta**2 / c_fit
                    h_star = model.horizon if q == math.inf else min(
                        q / (2.0 * (eps**2 + math.sqrt(eps**4 + q))), model.horizon)
                    mc_steps = max(1, math.ceil(model.horizon / h_star))
                else:
                    mc_steps = 1
                mc_samples = max(1, math.ceil(var_psi / delta**2)) if var_psi > 0 else 1
            except (OverflowError, ZeroDivisionError):
                raise ConfigurationError(f"the plain-MC comparator at delta {delta} and epsilon "
                                         f"{eps} leaves the floats", "delta_list") from None
            mc_cost = mc_samples * m_particles * model.d_bar * mc_steps
            with blame("delta_list", "target_delta"):
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


def chaos_grid(model: ModelSpec, m_list: list[int], reference_m: int, replications: int,
               steps: int, pathwise: bool):
    """The preflight of ``chaos_study``: the noise block of the reference system,
    the largest it draws, since every M is below ``reference_m``."""
    for m in nonempty(m_list, "m_list"):
        integer(m, 1, "m_list", name="an m_list entry")
    integer(reference_m, max(m_list) + 1, "reference_m")
    integer(replications, 1, "replications", MAX_STREAMS)
    with blame("steps"):
        check_steps(integer(steps, 1, "steps"), f"a chaos grid of {steps} steps")
    if not isinstance(pathwise, bool):
        raise ConfigurationError(f"pathwise must be a bool, got {pathwise!r}", "pathwise")
    return noise_block(steps, reference_m, model.d_bar, "the reference system", "reference_m")


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
    shape = chaos_grid(model, m_list, reference_m, replications, steps, pathwise)
    test_fn = test_fn or builtin_test_function("identity")
    h = model.horizon / steps

    def one(rep: int) -> list[float]:
        xi_ref = stream(seed, DOMAIN_CHAOS, rep, 0).standard_normal(shape)
        if pathwise:
            # shared leading streams couple particle i across both systems
            xis = [xi_ref[:, :m] for m in m_list]
        else:
            # every M draws the head of one stream, independent of the reference
            xis = [stream(seed, DOMAIN_CHAOS, rep, 1).standard_normal((steps, m, model.d_bar))
                   for m in m_list]
        paths = [_walk(model, model.start(m), h, xi) for m, xi in zip(m_list, xis)]
        sups = [np.zeros(m) for m in m_list]
        for ref, *smalls in zip(_walk(model, model.start(reference_m), h, xi_ref), *paths):
            if pathwise:
                for sup, small in zip(sups, smalls):
                    gap = np.sum((small - ref[:len(sup)]) ** 2, axis=1)
                    np.maximum(sup, gap, out=sup)
        if pathwise:
            return [float(sorted_mean(sup)) for sup in sups]
        b = float(sorted_mean(test_fn.psi(ref)))
        return [(float(sorted_mean(test_fn.psi(small))) - b) ** 2 for small in smalls]

    vals = ordered_map(one, range(replications))
    return [ChaosRow(m_particles=m, mse_vs_reference=float(np.mean([v[i] for v in vals])),
                     replications=replications) for i, m in enumerate(m_list)]
