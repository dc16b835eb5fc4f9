"""Decompose a power-utility SDF on simulated data.

Simulates an AR(1) log-growth state, prices it with m = beta * G^(-gamma),
estimates the dominant eigenvalue and eigenfunctions with a Hermite sieve,
and splits the SDF into its martingale (permanent) and transitory
increments. The closed-form solution for this design is printed alongside
for reference.
"""

import math

import numpy as np

import sdfspectral as s

BETA, GAMMA = 0.994, 15.0

design = s.Ar1Design(mu=0.005, kappa=0.6, sigma=0.01)
panel = s.simulate_ar1(design, n=1600, seed=5)

basis = s.BasisSpec(family="hermite", k=8).build(panel.states)
sieve = s.Design(basis, panel)  # b(X_t) and b(X_{t+1}), evaluated once

# the SDF m = beta G^(-gamma), the eigenpair of the Gram and pricing matrices,
# and the permanent/transitory split of m
fit = s.fit_panel(sieve, s.PowerUtility(BETA, GAMMA))
eig = fit.eig  # rho and the right and left coefficients
series = s.pt_series(eig.rho, fit.sample.phi_t, fit.sample.phi_t1, fit.m)
long_run = s.long_run_stack(eig.rho, series.m)

# the closed form: L = gamma^2 sigma^2 / (2 (1 - kappa)^2) from the Gaussian
# moment generating function, and rho = beta exp(-gamma mu + L)
entropy_L = GAMMA**2 * design.sigma**2 / (2.0 * (1.0 - design.kappa) ** 2)
rho = BETA * math.exp(-GAMMA * design.mu + entropy_L)
print(f"estimated rho = {eig.rho:.5f}   (closed form {rho:.5f})")
print(f"long-run yield = {long_run['y']:.5f}")

print(f"entropy of the permanent component = {long_run['L']:.5f} "
      f"(closed form {entropy_L:.5f})")
print(f"one-period SDF entropy             = {long_run['sdf_entropy']:.5f}")
print(f"horizon dependence                 = {long_run['horizon_dependence']:.5f}")
print(f"sd of log m_perm = {np.std(np.log(series.m_perm)):.4f}, "
      f"sd of log m_trans = {np.std(np.log(series.m_trans)):.4f}")

stats = s.pt_association(series)
print(f"cov(log m_perm, log m_trans) = {stats['cov_log']:.2e}, "
      f"Kendall tau = {stats['kendall_tau']:.3f}")

# the eigenfunctions themselves: log phi is nearly affine in the state with
# slope -gamma*kappa/(1-kappa) for this design
grid = np.linspace(panel.x0.min(), panel.x0.max(), 7)[:, None]
b_grid = basis.evaluate_many(grid)
phi_g, phi_star_g = b_grid @ eig.right, b_grid @ eig.left
print("\n   x        phi(x)    phi*(x)   phi*phi*")
for x, p, q in zip(grid[:, 0], phi_g, phi_star_g):
    print(f"{x:+.4f}   {p:7.4f}   {q:7.4f}   {p * q:7.4f}")
