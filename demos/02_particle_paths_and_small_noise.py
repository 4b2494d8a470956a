"""Particle paths, the zero-noise flow, and the quadratic small-noise law.

As the noise scale shrinks, every particle concentrates around the explicit
Euler iterates of the deterministic flow; the pathwise mean-square sup
deviation decays like the square of the noise scale. The sweep below shares
increments across noise scales, so the fitted slope is exact up to rounding.
"""

import numpy as np

from mlmc_mvsde import (
    builtin_model,
    loglog_fit,
    ode_limit,
    simulate_path,
    small_noise_curve,
)

model = builtin_model("meanfield_ou",
                      {"a": 1.0, "b": 0.5, "sigma": 1.0, "x0": 1.0, "T": 1.0, "epsilon": 0.2})
h = 2.0**-6

rec = simulate_path(model, h, m_particles=64, seed=7)
z = ode_limit(model, h)
print("time    particle mean   zero-noise flow")
for n in range(0, len(rec.states), 16):
    mean = rec.states[n].mean()
    print(f"{rec.times[n]:.3f}   {mean:+.6f}       {z[n, 0]:+.6f}")
print(f"\nrng draws consumed: {rec.rng_draws} (= M * dbar * steps)")

eps_list = [0.4, 0.2, 0.1, 0.05]
curve = small_noise_curve(model, eps_list, h, m_particles=64, replications=50, seed=7)
print("\nnoise scale   E[max_n |Y - z|^2]")
for eps, dev in curve:
    print(f"{eps:>10}   {dev:.6e}")
fit = loglog_fit(curve)
print(f"fitted slope in the noise scale: {fit.slope:.4f} (expected: 2)")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(7, 4))
    for i in range(8):
        ax.plot(rec.times, rec.states[:, i, 0], lw=0.7, alpha=0.6)
    ax.plot(rec.times, z[:, 0], "k--", lw=2, label="zero-noise flow")
    ax.set_xlabel("t"), ax.set_ylabel("state"), ax.legend()
    fig.tight_layout()
    fig.savefig("demo_paths.png", dpi=120)
    print("\nwrote demo_paths.png")
except ImportError:
    pass
