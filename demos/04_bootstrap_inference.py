"""Stationary-bootstrap confidence intervals for the long-run functionals.

Resamples blocks of transition pairs with geometric lengths (expected
block length six) and circular wraparound, re-estimates the scalar
functionals on each resample, and reports percentile intervals. Plug-in
standard errors from the influence function are shown alongside.
"""

import numpy as np

import sdfspectral as s
from sdfspectral.pipeline import bootstrap_statistic

BETA, GAMMA = 0.994, 15.0
BLOCK = 6.0  # expected block length
prefs = s.PowerUtility(beta=BETA, gamma=GAMMA)

design = s.Ar1Design(mu=0.005, kappa=0.6, sigma=0.01)
panel = s.simulate_ar1(design, n=276, seed=137)  # quarterly-panel scale
sieve = s.Design(s.BasisSpec(family="hermite", k=8).build(panel.states), panel)

fit = s.fit_panel(sieve, prefs)
point = s.long_run_stack(fit.eig.rho, fit.m)

boot = s.bootstrap_ci(
    bootstrap_statistic(sieve, prefs), panel.n,
    b=1000, expected_block=BLOCK, level=0.90, seed=2024,
)
print(f"B = 1000 replications, {boot.discarded} discarded, "
      f"expected block length {BLOCK}\n")
print(f"{'statistic':>20} {'estimate':>10} {'90% CI':>24}")
for stat in ("rho", "y", "L", "sdf_entropy", "horizon_dependence"):
    print(f"{stat:>20} {point[stat]:>10.4f}    "
          f"[{boot.ci_lo[stat]:+.4f}, {boot.ci_hi[stat]:+.4f}]")

on = fit.sample  # the fit's values on the sample: phi, phi*, psi_rho, se_rho
bw = s.default_bandwidth(panel.n)
v_l = s.variance_entropy(on.psi_rho, fit.eig.rho, fit.m, bw)
print(f"\nplug-in SE(rho) = {on.se_rho:.4f} "
      f"(bootstrap sd {np.std(boot.replicates['rho'], ddof=1):.4f})")
print(f"plug-in SE(L)   = {np.sqrt(v_l / panel.n):.4f} "
      f"(Newey-West bandwidth {bw}; bootstrap sd "
      f"{np.std(boot.replicates['L'], ddof=1):.4f})")
print("\npercentile intervals are the default inference route here: at this "
      "sample size the eigenvalue's sampling distribution is right-skewed "
      "and wider than its first-order asymptotics.")
