"""Tour of the built-in mean-field models.

Each model bundles a drift f(x, mu), a diffusion g(x, mu), a noise scale,
and declared regularity constants. The measure is always the uniform cloud
of a system's own particles: ``coefficients(model, states)`` evaluates every
particle of an (M, d) state array against that array, and a one-particle
system recovers the classical (non-interacting) coefficients.
"""

import numpy as np

from mlmc_mvsde import builtin_model, coefficients

PARAMS = {
    "zero": {"x0": 1.0, "T": 1.0, "epsilon": 0.1},
    "constant_drift": {"c": 2.0, "x0": 0.0, "T": 1.0, "epsilon": 0.5},
    "meanfield_ou": {"a": 1.0, "b": 0.5, "sigma": 1.0, "x0": 1.0, "T": 1.0, "epsilon": 0.25},
    "kuramoto": {"kappa": 1.0, "sigma": 1.0, "x0": 0.5, "T": 1.0, "epsilon": 0.2},
    "measure_diffusion": {"a": 1.0, "sigma": 1.0, "x0": 1.0, "T": 1.0, "epsilon": 0.2},
}

states = np.array([[-0.5], [0.25], [1.5], [2.75]])
fmt = lambda values: "[" + ", ".join(f"{v:+.4f}" for v in values) + "]"

print(f"system of {len(states)} particles at {states[:, 0].tolist()}, "
      f"each evaluated against the whole system\n")
for name, params in PARAMS.items():
    model = builtin_model(name, params)
    f, g = coefficients(model, states)
    print(f"{name:>18}: f = {fmt(f[:, 0])}   g = {fmt(g[:, 0, 0])}\n{'':>20}"
          f"eps = {model.epsilon}   K = {model.lipschitz_K:.3g}   beta = {model.growth_beta:.3g}")

ou = builtin_model("meanfield_ou", PARAMS["meanfield_ou"])
print(f"\nthe mean-reverting interaction model records its exact mean at T:"
      f" {ou.meta['exact_mean_at_horizon'][0]:.6f} (= x0 e^(-aT))")
