import math
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest

from mlmc_mvsde import (
    ConfigurationError,
    DivergenceError,
    LevelConfig,
    ModelSpec,
    NumericError,
    builtin_model,
    chaos_study,
    cost_compare,
    coupled_variance_study,
    loglog_fit,
    mlmc_estimate,
    second_moment_study,
    simulate_level_pair,
    simulate_path,
)
from mlmc_mvsde import mlmc_engine
from mlmc_mvsde.em_engine import MAX_STEPS
from mlmc_mvsde.mlmc_engine import _coupled_pairs, coupled_coarse_interval, cost_per_sample
from mlmc_mvsde.measure import sorted_mean

from helpers import IDENT, euler_mean, ou


def test_level_config_geometry():
    cfg = LevelConfig(refinement_n=2, level=3)
    assert cfg.fine_steps == 8 and cfg.coarse_steps == 4
    # the step sizes are the model's T / steps: on zero-noise OU at T = 2 the
    # fine path takes 8 steps of 1/4, the coarse path 4 steps of 1/2
    model = replace(ou(0.0), horizon=2.0)
    diff, fine, _ = simulate_level_pair(model, cfg, 3, IDENT, seed=0)
    assert fine == euler_mean(1.0, 1.0, 0.25, 8)
    assert diff == fine - euler_mean(1.0, 1.0, 0.5, 4)
    with pytest.raises(ConfigurationError):
        LevelConfig(refinement_n=1, level=3)
    with pytest.raises(ConfigurationError):
        LevelConfig(refinement_n=2, level=-1)
    # level 0 is one fine step and no coarse path: no half step, no 2T
    level0 = LevelConfig(refinement_n=2, level=0)
    assert level0.fine_steps == 1
    with pytest.raises(ConfigurationError, match="level 0"):
        level0.coarse_steps
    # a fine path of up to MAX_STEPS steps, and none longer, even at a huge level
    # or where a numpy integer's power wraps to 0
    assert LevelConfig(2, 24).fine_steps == LevelConfig(2**24, 1).fine_steps == MAX_STEPS
    for n_ref, level in ((2, 25), (2, 10**12), (3, 16), (2**24 + 1, 1), (np.int64(2**32), 2)):
        with pytest.raises(ConfigurationError, match=f"more than the {MAX_STEPS} steps"):
            LevelConfig(n_ref, level)


def test_coupled_state_initialization():
    start = ou(0.1).start(6)
    assert np.all(start == 1.0)


def test_coupled_interval_constant_drift_zero_noise():
    model = builtin_model("constant_drift", {"c": 2.0, "x0": 0.0, "T": 1.0, "epsilon": 0.0})
    cfg = LevelConfig(refinement_n=2, level=1)
    start = model.start(4)
    xi = np.random.default_rng(0).normal(size=(2, 4, 1))
    fine, coarse = coupled_coarse_interval(model, start, start, cfg, xi)
    assert np.all(fine == 2.0)
    assert np.all(coarse == 2.0)


def test_coupled_interval_ou_deterministic_oracle():
    # one coarse interval of the zero-noise flow: (1 - h_l)^N vs 1 - h_{l-1}
    model = ou(0.0)
    cfg = LevelConfig(refinement_n=2, level=1)
    start = model.start(4)
    fine, coarse = coupled_coarse_interval(model, start, start, cfg, np.zeros((2, 4, 1)))
    assert np.all(fine == 0.25)
    assert np.all(coarse == 0.0)


def test_coupled_interval_refuses_level_zero():
    # it stepped the coarse system by 2T: from x0 = 1 to -1 on zero-noise OU
    model = builtin_model("meanfield_ou", {"a": 1.0, "b": 0.0, "x0": 1.0, "T": 1.0,
                                           "epsilon": 0.0})
    start = model.start(4)
    with pytest.raises(ConfigurationError, match="level 0"):
        coupled_coarse_interval(model, start, start, LevelConfig(2, 0),
                                np.zeros((2, 4, 1)))


def test_coarse_increment_variance_law():
    # the effective coarse increment sqrt(h_l) sum_k xi_k has variance h_{l-1}
    cfg = LevelConfig(refinement_n=4, level=2)
    rng = np.random.default_rng(3)
    draws = rng.standard_normal((4, 20000))
    eff = math.sqrt(1.0 / cfg.fine_steps) * draws.sum(axis=0)
    assert eff.var() == pytest.approx(1.0 / cfg.coarse_steps, rel=0.05)


def test_coarse_step_divergence_is_flagged():
    # a h_fine = 2 flips the fine state in sign and keeps its size; a h_coarse = 4
    # triples the coarse state past DIVERGENCE_LIMIT
    model = builtin_model("meanfield_ou", {"a": 4.0, "b": 0.0, "x0": 5e11, "T": 1.0,
                                           "epsilon": 0.0})
    cfg = LevelConfig(refinement_n=2, level=1)
    start = model.start(4)
    with pytest.raises(DivergenceError):
        coupled_coarse_interval(model, start, start, cfg, np.zeros((2, 4, 1)))


def test_coarse_step_non_finite_drift_is_named():
    # finite on |x| < 2 only: after one interval the fine state is back at 1,
    # the coarse state at -3, so only the coarse drift turns NaN
    model = ModelSpec(
        d=1, d_bar=1,
        drift=lambda x, mu: np.where(np.abs(x) < 2.0, -4.0 * x, np.nan),
        diffusion=lambda x, mu: np.zeros(x.shape[:-1] + (1, 1)),
        epsilon=0.0, x0=np.array([1.0]), horizon=2.0,
        lipschitz_K=16.0, growth_beta=32.0,
    )
    cfg = LevelConfig(refinement_n=2, level=2)
    start = model.start(3)
    fine, coarse = coupled_coarse_interval(model, start, start, cfg, np.zeros((2, 3, 1)))
    assert np.all(fine == 1.0) and np.all(coarse == -3.0)
    with pytest.raises(NumericError, match="drift"):
        coupled_coarse_interval(model, fine, coarse, cfg, np.zeros((2, 3, 1)))


def test_coupled_interval_failures_name_their_path_and_step():
    # -3x, NaN from |x| = 1.5, at h_fine = 1/2 and h_coarse = 1
    model = ModelSpec(
        d=1, d_bar=1,
        drift=lambda x, mu: np.where(np.abs(x) < 1.5, -3.0 * x, np.nan),
        diffusion=lambda x, mu: np.ones(x.shape[:-1] + (1, 1)),
        epsilon=1.0, x0=np.array([1.0]), horizon=2.0,
        lipschitz_K=9.0, growth_beta=18.0,
    )
    cfg = LevelConfig(refinement_n=2, level=2)
    start = model.start(3)
    zeros = np.zeros((2, 3, 1))
    fine, coarse = coupled_coarse_interval(model, start, start, cfg, zeros)
    assert np.all(fine == 0.25) and np.all(coarse == -2.0)
    # a kick on the first sub-step takes the fine state from 1 to about 2
    kick = zeros.copy()
    kick[0] = 2.5 / math.sqrt(0.5)
    cases = [((fine, coarse, zeros), "coarse", 0),  # the coarse drift at -2
             ((coarse, coarse, zeros), "fine", 0),  # the fine drift at -2
             ((start, start, kick), "fine", 1)]  # the fine drift at about 2
    for (fine_x, coarse_x, xi), path, step in cases:
        with pytest.raises(DivergenceError, match="^drift ") as err:
            coupled_coarse_interval(model, fine_x, coarse_x, cfg, xi)
        assert (err.value.path, err.value.step_index) == (path, step)


def test_coupled_interval_outputs_are_fresh_read_only():
    model = ou(0.5)
    cfg = LevelConfig(refinement_n=2, level=1)
    start = model.start(4)
    xi = np.random.default_rng(0).normal(size=(2, 4, 1))
    for states in coupled_coarse_interval(model, start, start, cfg, xi):
        assert not states.flags.writeable
        for source in (start, xi):
            assert not np.shares_memory(states, source)
    # the caller's own states are read, not frozen
    mine = np.ones((4, 1))
    coupled_coarse_interval(model, mine, mine.copy(), cfg, xi)
    assert mine.flags.writeable


def test_simulate_level_pair_deterministic_oracle():
    model = ou(0.0)
    for level in (1, 2, 3):
        cfg = LevelConfig(refinement_n=2, level=level)
        diff, fine, cost = simulate_level_pair(model, cfg, 8, IDENT, seed=1)
        f = euler_mean(1.0, 1.0, 1.0 / cfg.fine_steps, cfg.fine_steps)
        c = euler_mean(1.0, 1.0, 1.0 / cfg.coarse_steps, cfg.coarse_steps)
        assert diff == f - c
        assert fine == f
        assert cost == 8 * 1 * 2**level


def test_simulate_level_pair_zero_model():
    model = builtin_model("zero", {"x0": 1.0, "T": 1.0, "epsilon": 0.1})
    cfg = LevelConfig(refinement_n=2, level=2)
    diff, fine, cost = simulate_level_pair(model, cfg, 8, IDENT, seed=1)
    assert diff == 0.0
    assert fine == 1.0
    assert cost == 8 * 4


def test_simulate_level_pair_constant_drift_cancellation():
    # shared noise cancels the diffusion term algebraically for constant g;
    # only summation-order rounding survives
    model = builtin_model("constant_drift", {"c": 2.0, "x0": 0.0, "T": 1.0, "epsilon": 0.7})
    for level in (1, 3):
        cfg = LevelConfig(refinement_n=2, level=level)
        diff, _, _ = simulate_level_pair(model, cfg, 16, IDENT, seed=5)
        assert abs(diff) < 1e-13


@pytest.mark.parametrize("n_ref", [2, 3])
def test_a_level_pair_walks_the_model_horizon(n_ref):
    # zero-noise constant drift ends both paths at x0 + c T, here on T = 2
    model = builtin_model("constant_drift", {"c": 2.0, "x0": 0.5, "T": 2.0, "epsilon": 0.0})
    levels = [1, 2, 3]
    for level in levels:
        diff, fine, _ = simulate_level_pair(model, LevelConfig(n_ref, level), 4, IDENT, seed=0)
        assert fine == pytest.approx(4.5, abs=1e-13) and diff == pytest.approx(0.0, abs=1e-13)
    rows = coupled_variance_study(model, levels, n_ref, 4, 2, IDENT, seed=0)
    assert [row.h_coarse for row in rows] == [2 / n_ref ** (level - 1) for level in levels]


def test_level0_examples():
    cfg = LevelConfig(refinement_n=2, level=0)
    zero = builtin_model("zero", {"x0": 1.0, "T": 1.0, "epsilon": 0.1})
    val, fine, cost = simulate_level_pair(zero, cfg, 8, IDENT, seed=0)
    assert val == fine == 1.0 and cost == 8

    const = builtin_model("constant_drift", {"c": 2.0, "x0": 0.0, "T": 1.0, "epsilon": 0.0})
    val, _, _ = simulate_level_pair(const, cfg, 8, IDENT, seed=0)
    assert val == 2.0

    det = ou(0.0)
    val, _, _ = simulate_level_pair(det, cfg, 8, IDENT, seed=0)
    assert val == euler_mean(1.0, 1.0, 1.0, 1)


def test_diff_sample_exchangeability_under_relabeling():
    model = ou(0.4)
    cfg = LevelConfig(refinement_n=2, level=2)
    rng = np.random.default_rng(9)
    blocks = [rng.standard_normal((2, 16, 1)) for _ in range(cfg.coarse_steps)]
    perm = rng.permutation(16)

    fine, coarse = _coupled_pairs(model, cfg, np.stack(blocks)[None])
    fine_p, coarse_p = _coupled_pairs(model, cfg,
                                      np.stack([b[:, perm, :] for b in blocks])[None])
    diff = sorted_mean(IDENT.psi(fine[0]) - IDENT.psi(coarse[0]))
    diff_p = sorted_mean(IDENT.psi(fine_p[0]) - IDENT.psi(coarse_p[0]))
    assert diff == diff_p


def test_telescoping_identity():
    # sum of level means approaches the plain fine estimator within 3 joint SE
    model = ou(0.25)
    n_samples = 400
    m = 16
    level_means, level_vars = [], []
    cfg0 = LevelConfig(refinement_n=2, level=0)
    xs = np.array([simulate_level_pair(model, cfg0, m, IDENT, 100, k)[0]
                   for k in range(n_samples)])
    level_means.append(xs.mean()), level_vars.append(xs.var(ddof=1))
    for level in (1, 2):
        cfg = LevelConfig(refinement_n=2, level=level)
        xs = np.array([
            simulate_level_pair(model, cfg, m, IDENT, 100, k)[0] for k in range(n_samples)
        ])
        level_means.append(xs.mean()), level_vars.append(xs.var(ddof=1))

    fine = np.array([
        sorted_mean(IDENT.psi(simulate_path(model, 0.25, m,
                                            seed=7_000_000 + k).states[-1]))
        for k in range(n_samples)
    ])
    joint_se = math.sqrt(sum(v / n_samples for v in level_vars) + fine.var(ddof=1) / n_samples)
    assert abs(sum(level_means) - fine.mean()) <= 3 * joint_se


def test_coupled_variance_zero_noise_is_exactly_zero():
    rows = coupled_variance_study(ou(0.0), [1, 2, 3], 2, 16, 20, IDENT, seed=0)
    for row in rows:
        assert row.var_diff == 0.0


def test_second_moment_rows_decay():
    rows = second_moment_study(ou(0.1), [2, 3, 4], 2, 32, 100, seed=0)
    vals = [r.second_moment for r in rows]
    assert vals[0] > vals[1] > vals[2] > 0


def test_cost_accounting_exact_in_studies():
    model = ou(0.1)
    rows = coupled_variance_study(model, [1, 2, 3], 2, 8, 10, IDENT, seed=0)
    for row in rows:
        assert row.rng_cost == row.samples * 8 * 1 * 2**row.level
    rows = second_moment_study(model, [1, 2], 2, 8, 10, seed=0)
    for row in rows:
        assert row.rng_cost == row.samples * 8 * 1 * 2**row.level


def test_mlmc_zero_model_degenerate():
    model = builtin_model("zero", {"x0": 1.0, "T": 1.0, "epsilon": 0.1})
    report = mlmc_estimate(model, IDENT, 1e-3, 2, 8, pilot_samples=4, max_level=6, seed=0)
    assert report.estimate == 1.0
    assert [row.level for row in report.per_level] == [0, 1]
    assert report.allocation == [4, 4]
    assert report.total_cost == 4 * 8 * 1 + 4 * 8 * 2
    assert report.flags == []


def test_mlmc_constant_drift_exact_at_zero_noise():
    model = builtin_model("constant_drift", {"c": 2.0, "x0": 1.0, "T": 1.0, "epsilon": 0.0})
    report = mlmc_estimate(model, IDENT, 1e-3, 2, 8, pilot_samples=4, max_level=6, seed=0)
    assert report.estimate == 3.0
    assert report.total_cost == 4 * 8 * (1 + 2)


def test_mlmc_constant_drift_levels_cancel_at_any_noise():
    model = builtin_model("constant_drift", {"c": 2.0, "x0": 1.0, "T": 1.0, "epsilon": 0.6})
    report = mlmc_estimate(model, IDENT, 5e-3, 2, 16, pilot_samples=8, max_level=6, seed=0)
    for row in report.per_level[1:]:
        assert abs(row.mean_diff) < 1e-13
        assert row.var_diff < 1e-26
    assert report.estimate == pytest.approx(report.per_level[0].mean_diff, abs=1e-13)


def test_mlmc_meanfield_hits_oracle():
    model = ou(0.25)
    delta = 5e-3
    report = mlmc_estimate(model, IDENT, delta, 2, 64, pilot_samples=32, max_level=8, seed=3)
    assert abs(report.estimate - math.exp(-1.0)) <= 3 * delta
    assert report.flags == []
    # allocation floors at the pilot size and cost accounting is exact
    for row, alloc in zip(report.per_level, report.allocation):
        assert row.samples == max(alloc, 32)
        assert row.rng_cost == row.samples * 64 * 1 * 2**row.level
    assert report.total_cost == sum(r.rng_cost for r in report.per_level)


def test_mlmc_bias_unconverged_flag():
    report = mlmc_estimate(ou(0.25), IDENT, 1e-3, 2, 8, pilot_samples=4, max_level=2, seed=0)
    assert "bias_unconverged" in report.flags
    assert len(report.per_level) == 3


def test_mlmc_validation_errors():
    with pytest.raises(ConfigurationError):
        mlmc_estimate(ou(0.1), IDENT, -1.0, 2, 8)
    with pytest.raises(ConfigurationError):
        mlmc_estimate(ou(0.1), IDENT, 1e-3, 2, 8, pilot_samples=1)


def test_cost_compare_zero_noise_degenerates_to_pilot_cost():
    rows = cost_compare(ou(0.25), IDENT, [4e-3], [0.0], 2, 16,
                        pilot_samples=16, max_level=6, seed=0)
    row = rows[0]
    piloted_levels = row.mlmc_levels + 1
    expected = 16 * 16 * 1 * sum(2**l for l in range(piloted_levels))
    assert row.mlmc_cost == expected


def test_cost_compare_refuses_a_variance_pilot_past_max_steps():
    # its plain-MC variance pilot walks N^4 steps: 65^4 > MAX_STEPS >= 64^4
    with pytest.raises(ConfigurationError, match="refinement_n 65"):
        cost_compare(ou(0.25), IDENT, [4e-3], [0.1], 65, 2)


def exact_mc_steps(mse, h_cal, delta, eps, horizon):
    """ceil(T / h*) in 60 digits, h* the positive root of C h^2 + C eps^2 h =
    delta^2 / 2 with C = mse / (h_cal^2 + h_cal eps^2), from the exact floats."""
    with localcontext() as ctx:
        ctx.prec = 60
        mse, h_cal, delta, eps, horizon = map(Decimal, (mse, h_cal, delta, eps, horizon))
        q = 2 * delta**2 * (h_cal**2 + h_cal * eps**2) / mse
        ratio = horizon * 2 * (eps**2 + (eps**4 + q).sqrt()) / q
        return math.ceil(ratio), ratio % 1


def test_cost_compare_comparator_step_does_not_cancel(monkeypatch):
    def mc_steps(mse):
        monkeypatch.setattr(mlmc_engine, "strong_error_curve",
                            lambda model, h_list, *args, **kwargs: [(h_list[0], mse)])
        row, = cost_compare(ou(0.25), IDENT, [0.1], [1.0], 2, 2, pilot_samples=2, max_level=2)
        return row.mc_steps

    # q = 2 delta^2 / C near 1e-12 eps^4 at N = 2 (h_cal = 1/8), where
    # (sqrt(eps^4 + q) - eps^2) / 2 kept 4 digits and gave 4693694244264 steps
    want, frac = exact_mc_steps(3.3e9, 1 / 8, 0.1, 1.0, 1.0)
    assert 0.1 < frac < 0.9  # far from a tie that rounding could flip
    assert mc_steps(3.3e9) == want == 4693333333335
    # q overflows to inf: h* is the horizon, one step
    assert mc_steps(1.40625e-311) == 1


def test_cost_compare_monotone_in_epsilon():
    rows = cost_compare(ou(0.25), IDENT, [4e-3, 2e-3], [0.4, 0.2, 0.1], 2, 16,
                        pilot_samples=16, max_level=6, seed=0)
    for delta in (4e-3, 2e-3):
        costs = [r.mlmc_cost for r in rows if r.delta == delta]
        assert all(a >= b for a, b in zip(costs, costs[1:]))


def test_cost_compare_mc_dominates_at_small_delta():
    rows = cost_compare(ou(0.25), IDENT, [1e-3], [0.4], 2, 8,
                        pilot_samples=16, max_level=8, seed=0)
    assert rows[0].mc_cost > rows[0].mlmc_cost


def test_mlmc_cost_scaling_in_sampling_dominated_regime():
    # with small systems the pilot overhead is negligible and the total cost
    # follows the inverse-quadratic accuracy law up to log factors
    model = ou(0.25)
    pts = []
    for delta in (8e-3, 4e-3, 2e-3, 1e-3):
        report = mlmc_estimate(model, IDENT, delta, 2, 2, pilot_samples=32,
                               max_level=8, seed=1)
        pts.append((delta, float(report.total_cost)))
    fit = loglog_fit(pts)
    assert -2.6 <= fit.slope <= -1.5


def test_chaos_zero_model():
    model = builtin_model("zero", {"x0": 1.0, "T": 1.0, "epsilon": 0.1})
    rows = chaos_study(model, [4, 8], 64, 5, seed=0, steps=8)
    assert all(r.mse_vs_reference == 0.0 for r in rows)


def test_chaos_constant_drift_deterministic_limit():
    model = builtin_model("constant_drift", {"c": 2.0, "x0": 0.0, "T": 1.0, "epsilon": 0.0})
    rows = chaos_study(model, [4, 8], 64, 5, seed=0, steps=8)
    assert all(r.mse_vs_reference == 0.0 for r in rows)


def test_chaos_meanfield_rate():
    rows = chaos_study(ou(0.25), [16, 32, 64, 128], 4096, 60, seed=0)
    fit = loglog_fit([(r.m_particles, r.mse_vs_reference) for r in rows])
    assert -1.4 <= fit.slope <= -0.55


def test_chaos_pathwise_mode_decays():
    rows = chaos_study(ou(0.25), [8, 32, 128], 1024, 15, seed=0, pathwise=True)
    vals = [r.mse_vs_reference for r in rows]
    assert all(v > 0 for v in vals)
    assert vals[0] > vals[-1]


@pytest.mark.parametrize("pathwise", [False, True])
def test_chaos_rows_equal_single_m_runs(pathwise):
    # one reference walk serves every M: each row is the run of its M alone
    rows = chaos_study(ou(0.25), [3, 8, 3], 16, 4, seed=2, steps=8, pathwise=pathwise)
    alone = [chaos_study(ou(0.25), [m], 16, 4, seed=2, steps=8, pathwise=pathwise)[0]
             for m in (3, 8, 3)]
    assert rows == alone


def test_chaos_refuses_an_empty_m_list_by_name():
    # max() of the empty list raised a bare ValueError
    model = builtin_model("zero", {"x0": 1.0, "T": 1.0, "epsilon": 0.1})
    with pytest.raises(ConfigurationError, match="m_list must be a non-empty list, got") as err:
        chaos_study(model, [], 8, 2, seed=0)
    assert err.value.field == "m_list"


def test_chaos_reference_size_validated():
    with pytest.raises(ConfigurationError):
        chaos_study(ou(0.1), [16, 32], 32, 5, seed=0)
    # a study of no steps, and one of more than a path may take
    for steps in (0, MAX_STEPS + 1, 10**15):
        with pytest.raises(ConfigurationError):
            chaos_study(ou(0.1), [2], 4, 2, seed=0, steps=steps)


@pytest.mark.parametrize("path, run", [
    ("the reference system", lambda m: chaos_study(ou(0.1), [2], m, 2, seed=0)),
    ("a level-2 sample", lambda m: coupled_variance_study(ou(0.1), [2], 2, m, 2, IDENT, 0)),
    ("a level-0 sample", lambda m: mlmc_estimate(ou(0.1), IDENT, 0.1, 2, m)),
    ("a level-0 sample", lambda m: simulate_level_pair(ou(0.1), LevelConfig(2, 0), m, IDENT, 0)),
    ("the reference grid", lambda m: cost_compare(ou(0.1), IDENT, [0.1], [0.1], 2, m)),
])
def test_a_noise_block_past_the_bound_is_refused_before_it_is_drawn(path, run):
    with pytest.raises(ConfigurationError, match=f"the noise block of {path}, "):
        run(10**12)


def test_cost_per_sample_formula():
    for level in range(5):
        cfg = LevelConfig(refinement_n=3, level=level)
        assert cost_per_sample(cfg, 7, 2) == 7 * 2 * 3**level

