"""Acceptance suite: one test per criterion, at the stated tolerances.

Reference setup: the mean-reverting interaction model with a=1, b=0.5,
sigma=1, x0=1, T=1, d=1 and the identity observable. Criterion 05's
small-step arm alone swaps in the state-dependent diffusion
sigma (1 + sin(x)/2), because under the reference model's constant diffusion
Euler-Maruyama coincides with Milstein and its error has no linear-in-h term.

The reference model is linear with constant diffusion, so the expected
coupled fine/coarse gap has a closed form (``coupled_gap_second_moment``),
and so do the mean and variance of one level sample
(``coupled_difference_moments``). Criteria 02 and 05 check the simulated gap
against the first, criteria 03 and 04 each level row against the second;
both oracles are checked against the exact zero-noise Euler gap.

Each test prints one line with the measured quantities; run with
``pytest -s`` to see them on passing criteria too.
"""

import itertools
import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chi2, norm

from mlmc_mvsde import (
    LevelConfig,
    coupled_variance_study,
    loglog_fit,
    mlmc_estimate,
    moment_w2,
    second_moment_study,
    simulate_level_pair,
    small_noise_curve,
    strong_error_curve,
    w2_to_dirac,
    wasserstein2,
)
from mlmc_mvsde.cli_runner import main as cli_main

from helpers import IDENT, OU, euler_mean, ou

#: the probability that one level row of a correct run falls outside one of
#: its exact-moment bands
BAND_P = 1e-4


def ou_sin_diffusion(eps):
    """Reference drift with the state-dependent diffusion sigma (1 + sin(x)/2)."""
    def diffusion(x, mu):
        return OU["sigma"] * (1.0 + 0.5 * np.sin(x))[..., None]

    return replace(ou(eps), diffusion=diffusion, name="meanfield_ou_sin_diffusion", meta={})


def coupled_gap_second_moment(eps, h_fine, refinement, coarse_steps, m_particles):
    """Exact E|Y_fine(T) - Y_coarse(T)|^2 per particle for the reference model.

    The fine path takes N n_c Euler steps of h_fine (N = refinement,
    n_c = coarse_steps); the coarse path takes n_c steps of N h_fine driven by
    the summed fine increments. Each particle splits into the system mean
    (rate a, averaged noise of variance 1/M) and its deviation from it
    (rate a + b, noise variance 1 - 1/M); the two noises are uncorrelated.
    For a rate r let
    D_r = (1 - r h_fine)^(N n_c) - (1 - r N h_fine)^n_c and
    S_r = sum_{k < N n_c} [(1 - r h_fine)^(N n_c - 1 - k) - (1 - r N h_fine)^(n_c - 1 - k // N)]^2;
    the gap is x0^2 D_a^2 + eps^2 sigma^2 h_fine (S_a / M + (1 - 1/M) S_{a+b}).
    """
    a, b, sigma, x0 = OU["a"], OU["b"], OU["sigma"], OU["x0"]
    d_mean, s_mean = gap_terms(a, h_fine, refinement, coarse_steps)
    _, s_dev = gap_terms(a + b, h_fine, refinement, coarse_steps)
    noise = s_mean / m_particles + (1.0 - 1.0 / m_particles) * s_dev
    return x0**2 * d_mean**2 + (eps * sigma) ** 2 * h_fine * noise


def gap_terms(rate, h_fine, refinement, coarse_steps):
    """The terms (D_r, S_r) of ``coupled_gap_second_moment`` at the rate r."""
    h_coarse = refinement * h_fine
    fine_steps = refinement * coarse_steps
    k = np.arange(fine_steps)
    fine = (1.0 - rate * h_fine) ** (fine_steps - 1 - k)
    coarse = (1.0 - rate * h_coarse) ** (coarse_steps - 1 - k // refinement)
    drift_gap = (1.0 - rate * h_fine) ** fine_steps - (1.0 - rate * h_coarse) ** coarse_steps
    return drift_gap, float(np.sum((fine - coarse) ** 2))


def coupled_difference_moments(eps, h_fine, refinement, coarse_steps, m_particles):
    """Exact mean and variance of one level sample of the reference model
    under the identity observable: the system mean of the fine-coarse gap.

    The system mean moves at rate a, driven by averaged noise of variance
    1/M, so a level sample with ``coarse_steps`` >= 1 has mean x0 D_a and
    variance eps^2 sigma^2 h_fine S_a / M (the terms of
    ``coupled_gap_second_moment``). ``coarse_steps = 0`` is level 0, one
    step of h_fine = T and no coarse path: mean x0 (1 - a T), variance
    eps^2 sigma^2 T / M. Either sample is exactly Gaussian.
    """
    a, sigma, x0 = OU["a"], OU["sigma"], OU["x0"]
    noise = (eps * sigma) ** 2 / m_particles
    if coarse_steps == 0:
        return x0 * (1.0 - a * h_fine), noise * h_fine
    d_mean, s_mean = gap_terms(a, h_fine, refinement, coarse_steps)
    return x0 * d_mean, noise * h_fine * s_mean


def level_row_bands(eps, rows, m_particles):
    """Each ``coupled_variance_study`` row at refinement 2 against its exact
    moments: the ratio var_diff / V_l, the z-score of mean_diff, and whether
    both lie in their bands. A level sample is Gaussian, so (R - 1) var_diff
    / V_l is chi-squared with R - 1 degrees of freedom and mean_diff is normal
    with variance V_l / R; each band misses a correct row with probability
    ``BAND_P``."""
    z_max = norm.ppf(1.0 - BAND_P / 2)
    out = []
    for r in rows:
        mean, var = coupled_difference_moments(eps, r.h_coarse / 2, 2,
                                               round(OU["T"] / r.h_coarse), m_particles)
        dof = r.samples - 1
        lo, hi = chi2.ppf([BAND_P / 2, 1.0 - BAND_P / 2], dof) / dof
        ratio = r.var_diff / var
        z = (r.mean_diff - mean) / math.sqrt(var / r.samples)
        out.append((ratio, z, bool(lo <= ratio <= hi and abs(z) <= z_max)))
    return out


def band_detail(bands):
    return (f"var_diff / V_l={[f'{ratio:.3f}' for ratio, _, _ in bands]}, "
            f"mean_diff z={[f'{z:+.2f}' for _, z, _ in bands]}")


def level_gap(eps, row, m_particles):
    """Closed-form gap for one second_moment_study row at refinement 2."""
    return coupled_gap_second_moment(eps, row.h_coarse / 2, 2,
                                     round(OU["T"] / row.h_coarse), m_particles)


def strong_error_gap(eps, h, h_ref, m_particles):
    """Closed-form mse for one strong_error_curve point against its reference step."""
    return coupled_gap_second_moment(eps, h_ref, round(h / h_ref), round(OU["T"] / h),
                                     m_particles)


def report(name, detail, ok):
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_c01_zero_noise_degeneracy():
    t0 = time.time()
    rows = coupled_variance_study(ou(0.0), [1, 2, 3, 4, 5], 2, 64, 50, IDENT, seed=0)
    worst = max(r.var_diff for r in rows)
    ok = worst <= 1e-25
    report("01 zero-noise degeneracy", f"max var_diff={worst:.3e}, {time.time()-t0:.1f}s", ok)
    assert ok, f"max var_diff {worst} exceeds 1e-25"


def test_gap_oracle_is_exact_at_zero_noise():
    # at eps = 0 both studies return the squared deterministic Euler gap, up to
    # rounding that grows with the number of steps
    rows = second_moment_study(ou(0.0), [2, 3, 4, 5], 2, 4, 2, seed=0)
    for r in rows:
        assert r.second_moment == pytest.approx(level_gap(0.0, r, 4), rel=1e-12)
    hs = [2.0**-k for k in range(6, 10)]
    for h, mse in strong_error_curve(ou(0.0), hs, 2, 2, seed=0, ref_factor=8):
        assert mse == pytest.approx(strong_error_gap(0.0, h, min(hs) / 8, 2), rel=1e-10)


def test_difference_oracle_is_exact_at_zero_noise():
    # at eps = 0 each level sample is the deterministic Euler gap of the
    # system mean, with no spread; on T = 1/2 the level-0 mean is not 0
    a, x0, horizon = OU["a"], OU["x0"], 0.5
    model = replace(ou(0.0), horizon=horizon)
    for level in range(6):
        h_fine = horizon / 2**level
        mean, var = coupled_difference_moments(0.0, h_fine, 2, 2**level // 2, 4)
        fine = euler_mean(a, x0, h_fine, 2**level)
        euler_gap = fine - (euler_mean(a, x0, 2 * h_fine, 2 ** (level - 1)) if level else 0.0)
        assert mean == pytest.approx(euler_gap, rel=1e-12, abs=1e-15) and var == 0.0
        sample = simulate_level_pair(model, LevelConfig(2, level), 4, IDENT, seed=0)[0]
        assert sample == pytest.approx(mean, rel=1e-12, abs=1e-15)
    rows = coupled_variance_study(model, [1, 2, 3, 4, 5], 2, 4, 3, IDENT, seed=0)
    for r in rows:
        mean, _ = coupled_difference_moments(0.0, r.h_coarse / 2, 2, round(horizon / r.h_coarse), 4)
        assert r.mean_diff == pytest.approx(mean, rel=1e-12)


def test_c02_coupled_second_moment_ratios():
    t0 = time.time()
    rows = second_moment_study(ou(0.1), [2, 3, 4, 5], 2, 128, 200, seed=0)
    vals = [r.second_moment for r in rows]
    exact = [level_gap(0.1, r, 128) for r in rows]
    rel = [v / e - 1.0 for v, e in zip(vals, exact)]
    ratios = [math.log2(a / b) for a, b in zip(vals, vals[1:])]
    exact_ratios = [math.log2(a / b) for a, b in zip(exact, exact[1:])]
    # the coarsest pair (coarse step T/2) is pre-asymptotic: its exact ratio
    # lies above the band, so it is checked against that exact value instead
    ok_levels = all(abs(r) <= 0.02 for r in rel)
    ok_first = abs(ratios[0] - exact_ratios[0]) <= 0.05
    ok_band = all(0.7 <= r <= 2.3 for r in ratios[1:])
    report("02 coupled second moment",
           f"log2 ratios={[f'{r:.3f}' for r in ratios]} "
           f"exact={[f'{r:.3f}' for r in exact_ratios]}, "
           f"max rel gap to closed form={max(map(abs, rel)):.4f}, "
           f"{time.time()-t0:.1f}s", ok_levels and ok_first and ok_band)
    assert ok_levels, (
        f"second moments {vals} differ from the closed form {exact} by "
        f"{rel}, beyond 2%"
    )
    assert ok_first, (
        f"pre-asymptotic log2 ratio {ratios[0]:.3f} (levels 2 to 3) is not "
        f"within 0.05 of its exact value {exact_ratios[0]:.3f}"
    )
    assert ok_band, (
        f"log2 ratios {ratios[1:]} (levels 3 to 5; exact {exact_ratios[1:]}) "
        f"not all within [0.7, 2.3]"
    )


def test_c03_coupled_variance_rate_in_h():
    t0 = time.time()
    rows = coupled_variance_study(ou(0.1), [1, 2, 3, 4, 5, 6], 2, 128, 500, IDENT, seed=0)
    pts = [(r.h_coarse, r.var_diff) for r in rows]
    plain = loglog_fit(pts)
    fit = loglog_fit(pts[1:])  # the coarsest pair (level 1) is pre-asymptotic
    ok = 1.0 <= fit.slope <= 2.3 and fit.r_squared >= 0.9
    bands = level_row_bands(0.1, rows, 128)
    exact = all(ok_row for _, _, ok_row in bands)
    report("03 coupled variance vs h",
           f"slope={fit.slope:.3f} r2={fit.r_squared:.4f} "
           f"(plain fit slope={plain.slope:.3f}), {band_detail(bands)}, "
           f"{time.time()-t0:.1f}s", ok and exact)
    assert ok, f"slope {fit.slope} / r2 {fit.r_squared} outside [1.0, 2.3] / >= 0.9"
    assert exact, f"level rows outside their exact-moment bands: {band_detail(bands)}"


def test_c04_coupled_variance_rate_in_epsilon():
    t0 = time.time()
    pts = []
    bands = []
    for eps in (0.4, 0.2, 0.1, 0.05):
        rows = coupled_variance_study(ou(eps), [3], 2, 128, 500, IDENT, seed=0)
        pts.append((eps, rows[0].var_diff))
        bands += level_row_bands(eps, rows, 128)
    fit = loglog_fit(pts)
    ok = 1.7 <= fit.slope <= 4.3
    exact = all(ok_row for _, _, ok_row in bands)
    report("04 coupled variance vs epsilon",
           f"slope={fit.slope:.3f}, {band_detail(bands)}, {time.time()-t0:.1f}s", ok and exact)
    assert ok, f"slope {fit.slope} outside [1.7, 4.3]"
    assert exact, f"level rows outside their exact-moment bands: {band_detail(bands)}"


def test_c05_strong_error_rates():
    t0 = time.time()
    arm1 = strong_error_curve(ou(0.05), [2.0**-k for k in range(2, 7)], 128, 100,
                              seed=0, ref_factor=8)
    fit1 = loglog_fit(arm1)
    small_hs = [2.0**-k for k in range(6, 10)]
    # under constant diffusion the small-step error is quadratic in h: the
    # reference-model run is checked against its closed form, and the
    # linear-in-h band against a state-dependent diffusion
    arm2 = strong_error_curve(ou(0.5), small_hs, 128, 100, seed=0, ref_factor=8)
    exact2 = [strong_error_gap(0.5, h, min(small_hs) / 8, 128) for h, _ in arm2]
    rel2 = [mse / e - 1.0 for (_, mse), e in zip(arm2, exact2)]
    arm3 = strong_error_curve(ou_sin_diffusion(0.5), small_hs, 128, 100,
                              seed=0, ref_factor=8)
    fit3 = loglog_fit(arm3)
    ok1 = 1.6 <= fit1.slope <= 2.3
    ok2 = all(abs(r) <= 0.05 for r in rel2)
    ok3 = 0.8 <= fit3.slope <= 1.5
    report("05 strong error",
           f"large-step slope={fit1.slope:.3f}, "
           f"constant-diffusion small-step max rel gap to closed form="
           f"{max(map(abs, rel2)):.4f}, "
           f"state-dependent small-step slope={fit3.slope:.3f}, "
           f"{time.time()-t0:.1f}s", ok1 and ok2 and ok3)
    assert ok1, f"large-step slope {fit1.slope} outside [1.6, 2.3]"
    assert ok2, (
        f"constant-diffusion small-step mse {[mse for _, mse in arm2]} differs "
        f"from the closed form {exact2} by {rel2}, beyond 5%"
    )
    assert ok3, (
        f"state-dependent-diffusion small-step slope {fit3.slope} outside "
        f"[0.8, 1.5]"
    )


def test_c06_small_noise_deviation():
    t0 = time.time()
    curve = small_noise_curve(ou(0.1), [0.4, 0.2, 0.1, 0.05], 2.0**-6, 64, 50, seed=0)
    fit = loglog_fit(curve)
    ok = 1.7 <= fit.slope <= 2.3
    report("06 small-noise deviation", f"slope={fit.slope:.4f}, {time.time()-t0:.1f}s", ok)
    assert ok, f"slope {fit.slope} outside [1.7, 2.3]"


def test_c07_mlmc_correctness():
    t0 = time.time()
    delta = 2e-3
    truth = math.exp(-1.0)
    hits = 0
    errs = []
    for seed in range(20):
        rep = mlmc_estimate(ou(0.25), IDENT, delta, 2, 64, pilot_samples=32,
                            max_level=8, seed=seed)
        err = abs(rep.estimate - truth)
        errs.append(err)
        hits += err <= 3 * delta
    ok = hits >= 17
    # the estimator's contract is MSE <= 1.5 delta^2 (variance delta^2 from the
    # allocation, squared bias delta^2 / 2 from the bias proxy); 20 squared
    # errors exceed 1.5 delta^2 chi2_{0.999, 20} only with probability 1e-3
    mse = float(np.mean(np.square(errs)))
    bound = 1.5 * delta**2 * chi2.ppf(0.999, len(errs)) / len(errs)
    rmse, rmse_max = math.sqrt(mse) / delta, math.sqrt(bound) / delta
    report("07 mlmc correctness", f"hits={hits}/20, max|err|={max(errs):.2e}, "
           f"RMSE={rmse:.2f} delta (bound {rmse_max:.2f}), {time.time()-t0:.1f}s",
           ok and mse <= bound)
    assert ok, f"only {hits}/20 runs within 3 delta of the exact mean"
    assert mse <= bound, f"RMSE {rmse:.2f} delta exceeds {rmse_max:.2f} delta"


def test_c08_cost_scaling():
    # the criterion fixes epsilon but not the system size; small systems keep
    # the pilot overhead negligible so the sweep sits in the regime the band
    # describes (with M=64 the level pilots dominate and flatten the curve)
    t0 = time.time()
    pts = []
    flags = []
    for delta in (8e-3, 4e-3, 2e-3, 1e-3):
        rep = mlmc_estimate(ou(0.25), IDENT, delta, 2, 2, pilot_samples=32,
                            max_level=8, seed=0)
        pts.append((delta, float(rep.total_cost)))
        flags += rep.flags
    fit = loglog_fit(pts)
    ok = -2.6 <= fit.slope <= -1.5
    report("08 cost scaling", f"slope={fit.slope:.3f} flags={flags}, {time.time()-t0:.1f}s", ok)
    assert ok, f"cost slope {fit.slope} outside [-2.6, -1.5]"


def test_c09_wasserstein_brute_force_oracle():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(1, 7))
        xs = rng.normal(size=m) * rng.uniform(0.5, 3.0)
        ys = rng.normal(size=m) * rng.uniform(0.5, 3.0)
        got = wasserstein2(xs, ys)
        best = math.inf
        for perm in itertools.permutations(range(m)):
            cost = np.mean([(xs[i] - ys[j]) ** 2 for i, j in enumerate(perm)])
            best = min(best, cost)
        worst = max(worst, abs(got - math.sqrt(best)))
    ok = worst <= 1e-12
    report("09 transport oracle", f"max gap={worst:.2e}, {time.time()-t0:.1f}s", ok)
    assert ok


def test_c10_dirac_identity():
    t0 = time.time()
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 30))
        d = int(rng.integers(1, 4))
        mu = rng.normal(size=(m, d)) * rng.uniform(0.1, 5.0)
        worst = max(worst, abs(w2_to_dirac(mu, np.zeros(d)) - moment_w2(mu)))
    ok = worst <= 1e-15
    report("10 point-mass identity", f"max gap={worst:.2e}, {time.time()-t0:.1f}s", ok)
    assert ok


def test_c11_determinism_byte_identical_csv(tmp_path):
    t0 = time.time()
    cfg = {
        "experiment": "coupled-variance",
        "model": {"name": "meanfield_ou", "params": {**OU, "epsilon": 0.2}},
        "grid": {"refinement_n": 2, "levels": [1, 4], "m_particles": 32, "replications": 40},
        "seed": 123,
        "formats": ["csv"],
    }
    path = tmp_path / "cv.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["run", str(path), "--out", str(tmp_path / "a")]) == 0
    assert cli_main(["run", str(path), "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "coupled-variance.csv").read_bytes()
    b = (tmp_path / "b" / "coupled-variance.csv").read_bytes()
    ok = a == b
    report("11 determinism", f"{len(a)} byte CSV reproduced, {time.time()-t0:.1f}s", ok)
    assert ok


def test_c12_cost_accounting_exact():
    t0 = time.time()
    model = ou(0.25)
    rows = coupled_variance_study(model, [1, 2, 3, 4], 2, 16, 25, IDENT, seed=0)
    study_ok = all(r.rng_cost == r.samples * 16 * 1 * 2**r.level for r in rows)
    rep = mlmc_estimate(model, IDENT, 4e-3, 2, 16, pilot_samples=8, max_level=8, seed=0)
    mlmc_ok = all(r.rng_cost == r.samples * 16 * 1 * 2**r.level for r in rep.per_level)
    total_ok = rep.total_cost == sum(r.rng_cost for r in rep.per_level)
    ok = study_ok and mlmc_ok and total_ok
    report("12 cost accounting", f"exact integer match, {time.time()-t0:.1f}s", ok)
    assert ok
