import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmc_mvsde import (
    ConfigurationError,
    DivergenceError,
    NumericError,
    ParticleCloud,
    ShapeError,
    builtin_model,
    em_step,
    loglog_fit,
    ode_limit,
    simulate_path,
    small_noise_curve,
    strong_error_curve,
)
from mlmc_mvsde.em_engine import (DIVERGENCE_LIMIT, MAX_NOISE_FLOATS, MAX_STEPS, advance,
                                  check_nested_steps, step_count)
from mlmc_mvsde.model import ModelSpec

from helpers import OU, builtin_args, euler_mean, ou


def test_step_count():
    assert step_count(1.0, 0.125) == 8
    assert step_count(1.0, 0.25) == 4
    # a step that misses the horizon, and steps that are no positive finite number
    for h in (0.3, 0.0, -0.25, math.nan, math.inf, 5e-324):
        with pytest.raises(ConfigurationError):
            step_count(1.0, h)
    # steps that divide the horizon, up to MAX_STEPS of them and past it
    assert step_count(2.0, 2.0**-23) == MAX_STEPS
    for h in (2.0**-25, 1e-300):
        with pytest.raises(ConfigurationError, match=f"more than the {MAX_STEPS} steps"):
            step_count(1.0, h)


def test_em_step_zero_model_identity():
    model = builtin_model("zero", {"x0": 1.0, "T": 1.0, "epsilon": 0.1})
    cloud = ParticleCloud([0.2, -0.4, 1.7])
    out = em_step(model, cloud, 0.25, np.ones((3, 1)))
    assert np.array_equal(out.positions, cloud.positions)


def test_em_step_constant_drift_shift():
    model = builtin_model("constant_drift", {"c": 2.0, "x0": 0.0, "T": 1.0, "epsilon": 0.0})
    cloud = ParticleCloud([1.0, 5.0])
    out = em_step(model, cloud, 0.25, np.random.default_rng(1).normal(size=(2, 1)))
    assert np.array_equal(out.positions, cloud.positions + 0.5)


def test_em_step_ou_recursion():
    model = ou(0.0)
    cloud = ParticleCloud(np.ones((4, 1)))
    out = em_step(model, cloud, 0.1, np.zeros((4, 1)))
    assert np.allclose(out.positions, 0.9)


def test_em_step_shape_errors():
    model = ou(0.1)
    cloud = ParticleCloud(np.ones((4, 1)))
    with pytest.raises(ShapeError):
        em_step(model, cloud, 0.1, np.zeros((3, 1)))
    # a 1-D block is refused like any other wrong shape, not promoted to (M, 1)
    with pytest.raises(ShapeError, match=r"gaussians have shape \(4,\), expected \(4, 1\)"):
        em_step(model, cloud, 0.1, np.zeros(4))


@pytest.mark.parametrize("name", ["meanfield_ou", "kuramoto", "measure_diffusion"])
def test_advance_moves_a_stack_as_its_systems(name):
    # the parameters each model reads, at the values it had when given all of OU's
    params = {"meanfield_ou": {"a": 1.0, "b": 0.5}, "kuramoto": {},
              "measure_diffusion": {"a": 1.0}}[name]
    model = builtin_model(name, {**params, "sigma": 0.7, "x0": [1.0, -0.5], "T": 1.0,
                                 "epsilon": 0.5})
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 5, 2))
    xi = rng.normal(size=(3, 5, 2))
    out = advance(model, x, 0.1, 0.3, xi)
    assert out.shape == (3, 5, 2) and not np.shares_memory(out, x)
    for k in range(3):
        one = advance(model, x[k], 0.1, 0.3, xi[k])
        assert one.tobytes() == out[k].tobytes()
    with pytest.raises(ShapeError):
        advance(model, x, 0.1, 0.3, xi[0])


def test_em_step_exchangeability_exact():
    # permuting particles and the matching gaussian rows permutes the output
    model = ou(0.4)
    rng = np.random.default_rng(7)
    pos = rng.normal(size=(32, 1))
    xi = rng.normal(size=(32, 1))
    perm = rng.permutation(32)
    out = em_step(model, ParticleCloud(pos), 0.125, xi)
    out_p = em_step(model, ParticleCloud(pos[perm]), 0.125, xi[perm])
    assert np.array_equal(out_p.positions, out.positions[perm])


def _custom(drift, diffusion):
    return ModelSpec(d=1, d_bar=1, drift=drift, diffusion=diffusion, epsilon=0.5,
                     x0=np.array([0.0]), horizon=1.0, lipschitz_K=1.0, growth_beta=2.0)


def test_em_step_error_precedence():
    finite_f = lambda x, mu: np.zeros_like(x)
    nan_f = lambda x, mu: np.full(x.shape, np.nan)
    finite_g = lambda x, mu: np.ones(x.shape[:-1] + (1, 1))
    inf_g = lambda x, mu: np.full(x.shape[:-1] + (1, 1), np.inf)
    cloud = ParticleCloud([0.5, -0.5, 2.0])
    xi = np.ones((3, 1))
    with pytest.raises(NumericError, match="^drift "):
        em_step(_custom(nan_f, finite_g), cloud, 0.1, xi)
    with pytest.raises(NumericError, match="^diffusion "):
        em_step(_custom(finite_f, inf_g), cloud, 0.1, xi)
    with pytest.raises(NumericError, match="^drift "):
        em_step(_custom(nan_f, inf_g), cloud, 0.1, xi)
    # finite coefficients, overflowing state: numpy warns of the overflow
    with pytest.raises(DivergenceError), pytest.warns(RuntimeWarning, match="overflow"):
        em_step(_custom(lambda x, mu: np.full(x.shape, 1e308), finite_g),
                ParticleCloud([1e308, 1.0, 0.0]), 1.0, xi)


def test_em_step_errors_under_raising_errstate():
    # np.errstate(all="raise") turns the overflow into a FloatingPointError
    # inside the step; the caller must still get the library's errors
    nan_f = lambda x, mu: np.full(x.shape, np.nan)
    finite_g = lambda x, mu: np.ones(x.shape[:-1] + (1, 1))
    xi = np.ones((3, 1))
    # the start state's drift overflows where its coefficients are cached
    overflow = _custom(lambda x, mu: (x + 1e300) * 1e300, finite_g)
    with np.errstate(all="raise"):
        with pytest.raises(DivergenceError):
            em_step(_custom(lambda x, mu: np.full(x.shape, 1e308), finite_g),
                    ParticleCloud([1e308, 1.0, 0.0]), 1.0, xi)
        with pytest.raises(NumericError, match="^drift "):
            em_step(_custom(nan_f, finite_g), ParticleCloud([1e308, 1.0, 0.0]), 1.0, xi)
        with pytest.raises(NumericError, match=r"^drift .* \(0, 0\)$"):
            advance(overflow, overflow.start(4), 0.5, math.sqrt(0.5), np.zeros((4, 1)))
    # an underflow is no divergence: same bits as under the default settings
    tiny = _custom(lambda x, mu: np.full(x.shape, 1e-300),
                   lambda x, mu: np.zeros(x.shape[:-1] + (1, 1)))
    cloud = ParticleCloud([0.0, 1.0, -1.0])
    with np.errstate(all="raise"):
        out = em_step(tiny, cloud, 1e-10, xi)
    assert np.array_equal(out.positions, em_step(tiny, cloud, 1e-10, xi).positions)
    assert out.positions[0, 0] > 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_em_step_errors_under_warnings_as_errors():
    # numpy's overflow warning is an exception here; the caller must still
    # get the library's errors, with a step index from the path loop
    # x0 + h a x0 overflows from x0 = 1e12, at the edge of the trust region
    model = builtin_model("measure_diffusion", {"a": -1e150, "sigma": 1.0, "x0": 1e12,
                                                "T": 1e300, "epsilon": 0.1})
    with pytest.raises(DivergenceError):
        advance(model, model.start(4), 1e300, math.sqrt(1e300), np.zeros((4, 1)))
    with pytest.raises(DivergenceError) as err:
        simulate_path(model, 1e300, 4, 0)
    assert err.value.step_index == 0
    # the drift itself overflows, in the start state's coefficients; no
    # builtin with a start inside the trust region can do that
    model = _custom(lambda x, mu: (x + 1e300) * 1e300,
                    lambda x, mu: np.ones(x.shape[:-1] + (1, 1)))
    with pytest.raises(NumericError, match=r"^drift .* \(0, 0\)$"):
        advance(model, model.start(4), 0.5, math.sqrt(0.5), np.zeros((4, 1)))


def test_em_step_output_is_fresh_and_read_only():
    for model in (ou(0.4), builtin_model("zero", {"x0": 1.0, "T": 1.0, "epsilon": 0.1})):
        cloud = ParticleCloud(np.ones((5, 1)))
        xi = np.random.default_rng(3).normal(size=(5, 1))
        out = em_step(model, cloud, 0.125, xi)
        assert not out.positions.flags.writeable
        assert not np.shares_memory(out.positions, cloud.positions)
        assert not np.shares_memory(out.positions, xi)


def test_simulate_path_zero_model():
    model = builtin_model("zero", {"x0": 1.5, "T": 1.0, "epsilon": 0.1})
    rec = simulate_path(model, 1.0 / 16, 8, seed=3)
    assert rec.rng_draws == 8 * 1 * 16
    assert rec.states.shape == (17, 8, 1)
    assert np.all(rec.states == 1.5)


def test_simulate_path_constant_drift_exact():
    model = builtin_model("constant_drift", {"c": 2.0, "x0": 1.0, "T": 1.0, "epsilon": 0.0})
    rec = simulate_path(model, 0.5, 4, seed=0)
    assert np.all(rec.states[-1] == 3.0)


def test_simulate_path_is_deterministic_over_the_full_grid():
    model = ou(0.3)
    h = 1.0 / 32
    a = simulate_path(model, h, 16, seed=42)
    b = simulate_path(model, h, 16, seed=42)
    assert a.rng_draws == b.rng_draws == 16 * 32
    assert len(a.states) == 33 and np.array_equal(a.times, h * np.arange(33))
    assert a.states.tobytes() == b.states.tobytes()


def test_simulate_path_terminal_mean_clt_band():
    model = ou(0.1)
    rec = simulate_path(model, 2.0**-6, 256, seed=9)
    xs = rec.states[-1, :, 0]
    band = 3 * xs.std(ddof=1) / math.sqrt(256)
    assert abs(xs.mean() - math.exp(-1.0)) <= band + 5e-3  # CLT band plus step bias


def test_ode_limit_examples():
    zero = builtin_model("zero", {"x0": 2.0, "T": 1.0, "epsilon": 0.1})
    z = ode_limit(zero, 1.0 / 10)
    assert np.all(z == 2.0)

    model = ou(0.1)
    z = ode_limit(model, 1.0 / 10)
    assert np.allclose(z[:, 0], [0.9**n for n in range(11)], atol=1e-15)

    const = builtin_model("constant_drift", {"c": 2.0, "x0": 1.0, "T": 1.0, "epsilon": 0.1})
    z = ode_limit(const, 1.0 / 4)
    assert z[-1, 0] == 3.0


def reference_ode_limit(model, h):
    """The zero-noise Euler loop written out: z <- z + h f(z, delta_z), with
    the model's own drift callable at the one-particle system z."""
    z = np.array(model.x0, dtype=float)
    out = [z]
    for n in range(step_count(model.horizon, h)):
        z = z + h * model.drift(z[None], z[None])[0]
        if not np.all(np.isfinite(z)) or np.max(np.abs(z)) > DIVERGENCE_LIMIT:
            raise DivergenceError("iterate left the finite trust region", step_index=n)
        out.append(z)
    return np.array(out)


@settings(max_examples=60, deadline=None)
@given(args=builtin_args(epsilons=(0.0, 0.5)), horizon=st.sampled_from([0.5, 1.0, 3.0]),
       steps=st.integers(1, 79))
def test_ode_limit_equals_the_zero_noise_euler_loop(args, horizon, steps):
    name, params = args
    model = builtin_model(name, {**params, "T": horizon})
    h = horizon / steps
    z = ode_limit(model, h)
    assert z.shape == (steps + 1, model.d)
    assert z.tobytes() == reference_ode_limit(model, h).tobytes()


def test_ode_limit_holds_only_its_output():
    # it held a (steps, 1, d_bar) zero block and every step's row before stacking
    tracemalloc.start()
    try:
        z = ode_limit(ou(0.1), 2.0**-16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * z.nbytes, (peak, z.nbytes)


def test_ode_limit_divergence_carries_the_step_index():
    # h c = 0.4e12 per step: the iterate passes DIVERGENCE_LIMIT at step 2
    const = builtin_model("constant_drift", {"c": 1.6e12, "x0": 0.0, "T": 1.0, "epsilon": 0.1})
    for run in (ode_limit, reference_ode_limit):
        with pytest.raises(DivergenceError) as err:
            run(const, 1.0 / 4)
        assert err.value.step_index == 2


def test_a_nan_drift_carries_the_step_index():
    # drift 1 below 0.6 and NaN from there: from x0 = 0 at h = 1/8 the
    # iterate reaches 0.625 at step 5, where the drift is NaN
    model = _custom(lambda x, mu: np.where(x < 0.6, 1.0, np.nan),
                    lambda x, mu: np.zeros(x.shape[:-1] + (1, 1)))
    for run in (ode_limit, lambda m, h: simulate_path(m, h, 3, seed=0)):
        with pytest.raises(DivergenceError, match="^drift ") as err:
            run(model, 1.0 / 8)
        assert err.value.step_index == 5
    with pytest.raises(DivergenceError) as err:
        reference_ode_limit(model, 1.0 / 8)
    assert err.value.step_index == 5


def test_zero_noise_collapse_to_ode_exact():
    # with epsilon = 0 every particle path coincides with the deterministic
    # iterates bit for bit (particle count a power of two keeps means exact)
    model = ou(0.0)
    rec = simulate_path(model, 1.0 / 32, 64, seed=5)
    z = ode_limit(model, 1.0 / 32)
    for n, states in enumerate(rec.states):
        assert np.array_equal(states, np.tile(z[n], (64, 1)))


def test_divergence_error_carries_step_index():
    model = ModelSpec(
        d=1, d_bar=1,
        drift=lambda x, mu: 1e13 * np.ones_like(x),
        diffusion=lambda x, mu: np.broadcast_to(np.ones((1, 1)), x.shape[:-1] + (1, 1)),
        epsilon=0.1, x0=np.array([0.0]), horizon=1.0,
        lipschitz_K=0.0, growth_beta=1e30,
    )
    with pytest.raises(DivergenceError) as err:
        simulate_path(model, 1.0 / 4, 2, seed=0)
    assert err.value.step_index == 0


def test_strong_error_constant_drift_is_exact():
    model = builtin_model("constant_drift", {"c": 2.0, "x0": 1.0, "T": 1.0, "epsilon": 0.0})
    curve = strong_error_curve(model, [0.25, 0.125], 8, 4, seed=1)
    assert all(mse == 0.0 for _, mse in curve)


def test_strong_error_deterministic_oracle():
    # at epsilon = 0 the coupled mse equals the squared gap of Euler iterates
    model = ou(0.0)
    hs = [2.0**-2, 2.0**-3, 2.0**-4]
    curve = strong_error_curve(model, hs, 16, 3, seed=2, ref_factor=8)
    h_ref = min(hs) / 8
    ref = euler_mean(1.0, 1.0, h_ref, round(1.0 / h_ref))
    for h, mse in curve:
        expected = (euler_mean(1.0, 1.0, h, round(1.0 / h)) - ref) ** 2
        assert mse == pytest.approx(expected, rel=1e-12)
    fit = loglog_fit(curve)
    assert 1.8 <= fit.slope <= 2.5


def test_strong_error_rejects_non_nested_steps():
    model = ou(0.1)
    with pytest.raises(ConfigurationError):
        strong_error_curve(model, [0.25, 0.2], 8, 4, seed=1)


@pytest.mark.parametrize("h_list", [[0.5, 0.2], [0.5, 0.25, 0.1], [0.25, 0.125, 0.1],
                                    # a repeated step's MSE was summed once per repeat
                                    [0.25, 0.25], [0.5, 0.25, 0.5]])
def test_strong_error_raises_on_every_list_the_nesting_check_rejects(h_list):
    with pytest.raises(ConfigurationError):
        check_nested_steps(h_list)
    with pytest.raises(ConfigurationError):
        strong_error_curve(ou(0.1), h_list, 8, 4, seed=1)


def test_strong_error_needs_an_integer_ref_factor():
    # int() of the last two raised OverflowError and ValueError
    for ref_factor in (2.5, 1, math.inf, math.nan):
        with pytest.raises(ConfigurationError):
            strong_error_curve(ou(0.1), [0.25, 0.125], 8, 4, seed=1, ref_factor=ref_factor)
    # an h that does not divide the horizon is still rejected, and so is
    # one that is no positive finite number, before the nesting check
    for h_list in ([0.4, 0.2], [0.5, 0.0], [0.5, math.nan]):
        with pytest.raises(ConfigurationError):
            strong_error_curve(ou(0.1), h_list, 8, 4, seed=1)


def test_an_empty_h_list_is_refused_by_name():
    # min() of the empty list raised a bare ValueError
    with pytest.raises(ConfigurationError, match="h_list must be a non-empty list, got") as err:
        strong_error_curve(ou(0.1), [], 4, 2, 0)
    assert err.value.field == "h_list"


def test_a_reference_grid_past_max_steps_is_refused_before_its_step_is_formed():
    # 10**400 is no float: min(h_list) / ref_factor raised OverflowError
    with pytest.raises(ConfigurationError, match="the reference grid takes more than"):
        strong_error_curve(ou(0.1), [0.5], 2, 2, 0, ref_factor=10**400)


@pytest.mark.parametrize("path, run", [
    ("the path", lambda m: simulate_path(ou(0.1), 0.5, m, 0)),
    ("the reference grid", lambda m: strong_error_curve(ou(0.1), [0.5], m, 2, 0)),
    ("a replication", lambda m: small_noise_curve(ou(0.1), [0.1], 0.5, m, 2, 0)),
])
def test_a_noise_block_past_the_bound_is_refused_before_it_is_drawn(path, run):
    # just past the bound, and far past it, where numpy failed to allocate
    for m in (MAX_NOISE_FLOATS // 2 + 1, 10**12):
        with pytest.raises(ConfigurationError, match=f"the noise block of {path}, "):
            run(m)


def test_one_step_interpolation_gap_rates():
    # gap between the mid-interval interpolant and the left grid point at the
    # first step: E = |f(x0)|^2 h^2/4 + eps^2 sigma^2 h / 2 for this model
    model_base = ou(0.0)
    rng = np.random.default_rng(61)
    m = 512

    def measured(eps, h, reps=200):
        model = model_base.with_epsilon(eps)
        x = np.ones((m, 1))
        f = np.asarray(model.drift(x, x))
        g = np.asarray(model.diffusion(x, x))
        acc = 0.0
        for _ in range(reps):
            xi1 = rng.normal(size=(m, 1))
            mid = x + f * (h / 2) + eps * math.sqrt(h / 2) * np.einsum("mij,mj->mi", g, xi1)
            acc += float(np.mean(np.sum((mid - x) ** 2, axis=1)))
        return acc / reps

    hs = [2.0**-k for k in range(4, 9)]
    # drift-dominated regime: quadratic in h
    drift_curve = [(h, measured(0.0, h, reps=1)) for h in hs]
    for h, got in drift_curve:
        assert got == pytest.approx(h**2 / 4, rel=1e-12)
    assert loglog_fit(drift_curve).slope == pytest.approx(2.0, abs=1e-9)
    # noise-dominated regime: linear in h
    noise_curve = [(h, measured(0.5, h)) for h in hs]
    for h, got in noise_curve:
        expected = h**2 / 4 + 0.25 * h / 2
        assert got == pytest.approx(expected, rel=0.2)
    slope = loglog_fit(noise_curve).slope
    assert 0.9 <= slope <= 1.2


def test_strong_error_small_steps_with_state_dependent_diffusion():
    # the linear-in-h error component needs a state-dependent diffusion; with
    # one present the small-step slope at large noise drops toward 1
    def drift(x, mu):
        from mlmc_mvsde.measure import particle_mean

        return -x + 0.5 * (particle_mean(mu) - x)

    def diffusion(x, mu):
        return (1.0 + 0.5 * np.sin(x))[..., None]

    model = ModelSpec(d=1, d_bar=1, drift=drift, diffusion=diffusion, epsilon=0.5,
                      x0=np.array([1.0]), horizon=1.0, lipschitz_K=5.0, growth_beta=10.0)
    hs = [2.0**-k for k in range(6, 10)]
    curve = strong_error_curve(model, hs, 32, 40, seed=8, ref_factor=8)
    slope = loglog_fit(curve).slope
    assert 0.7 <= slope <= 1.7


def test_small_noise_curve_quadratic_in_epsilon():
    model = ou(0.1)
    curve = small_noise_curve(model, [0.4, 0.2, 0.1, 0.05], 2.0**-5, 32, 20, seed=11)
    fit = loglog_fit(curve)
    # linear dynamics with shared increments scale exactly like epsilon^2
    assert fit.slope == pytest.approx(2.0, abs=1e-3)
    assert fit.r_squared > 0.999999


def test_small_noise_curve_rows_equal_single_epsilon_runs():
    # common random numbers: every epsilon sees the block its run alone draws
    model = builtin_model("kuramoto", {"kappa": 1.0, "sigma": 1.0, "x0": 0.5, "T": 1.0,
                                       "epsilon": 0.1})
    curve = small_noise_curve(model, [0.3, 0.0, 0.3], 1.0 / 8, 5, 3, seed=4)
    assert curve == [small_noise_curve(model, [eps], 1.0 / 8, 5, 3, seed=4)[0]
                     for eps in (0.3, 0.0, 0.3)]
