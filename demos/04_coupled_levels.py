"""Fine/coarse level pairs: state gap and observable variance per level.

One level pairs two discretizations of the same noise: the fine system takes
N sub-steps per coarse interval, the coarse system one step driven by the
summed increments. The mean squared state gap and the variance of the
observable difference both shrink geometrically with the level, which is
what makes deep levels cheap to sample accurately.
"""

import math

from mlmc_mvsde import (
    builtin_model,
    builtin_test_function,
    coupled_variance_study,
    loglog_fit,
    second_moment_study,
)

model = builtin_model("meanfield_ou",
                      {"a": 1.0, "b": 0.5, "sigma": 1.0, "x0": 1.0, "T": 1.0, "epsilon": 0.1})
psi = builtin_test_function("identity")
levels = [1, 2, 3, 4, 5]

moments = second_moment_study(model, levels, 2, m_particles=64, replications=200, seed=5)
print("level   h_coarse   E|Y_fine - Y_coarse|^2")
for row in moments:
    print(f"{row.level:>5}   {row.h_coarse:<8}   {row.second_moment:.6e}")
ratios = [math.log2(a.second_moment / b.second_moment)
          for a, b in zip(moments, moments[1:])]
print("log2 ratios between consecutive levels:", [f"{r:.2f}" for r in ratios])

rows = coupled_variance_study(model, levels, 2, m_particles=64, replications=300,
                              test_fn=psi, seed=5)
print("\nlevel   h_coarse   var of observable difference   rng cost")
for row in rows:
    print(f"{row.level:>5}   {row.h_coarse:<8}   {row.var_diff:.6e} "
          f"(+- {row.ci_halfwidth:.1e})   {row.rng_cost}")
fit = loglog_fit([(r.h_coarse, r.var_diff) for r in rows[1:]])
print(f"fitted variance rate in the coarse step (coarsest level excluded): "
      f"{fit.slope:.3f}")
