"""Decompose a power-utility SDF on simulated data.

Simulates an AR(1) log-growth state, prices it with m = beta * G^(-gamma),
estimates the dominant eigenvalue and eigenfunctions with a Hermite sieve,
and splits the SDF into its martingale (permanent) and transitory
increments. The closed-form solution for this design is printed alongside
for reference.
"""

import numpy as np

import sdfspectral as s

BETA, GAMMA = 0.994, 15.0

design = s.Ar1Design(mu=0.005, kappa=0.6, sigma=0.01)
panel = s.simulate_ar1(design, n=1600, seed=5)

basis = s.BasisSpec(family="hermite", k=8).build(panel.states)
m = s.power_utility_sdf_series(panel, BETA, GAMMA)
sieve = s.Design(basis, panel)  # b(X_t) and b(X_{t+1}), evaluated once

G = s.estimate_gram(sieve)
M = s.estimate_pricing(sieve, m)
sol = s.normalize(s.solve_generalized(M, G, const_coeffs=basis.const_coeffs), G)

truth = s.affine_power_utility_solution(design, BETA, GAMMA)
print(f"estimated rho = {sol.rho:.5f}   (closed form {truth.rho:.5f})")
print(f"long-run yield = {s.long_run_yield(sol.rho):.5f}")

phi_t = sieve.b0 @ sol.right_coeffs
phi_t1 = sieve.b1 @ sol.right_coeffs
series = s.pt_series(sol.rho, phi_t, phi_t1, m)

print(f"entropy of the permanent component = {series.entropy_L:.5f} "
      f"(closed form {truth.entropy_L:.5f})")
print(f"one-period SDF entropy             = {series.sdf_entropy:.5f}")
print(f"horizon dependence                 = {series.horizon_dependence:.5f}")
print(f"sd of log m_perm = {np.std(np.log(series.m_perm)):.4f}, "
      f"sd of log m_trans = {np.std(np.log(series.m_trans)):.4f}")

stats = s.pt_association(series)
print(f"cov(log m_perm, log m_trans) = {stats['cov_log']:.2e}, "
      f"Kendall tau = {stats['kendall_tau']:.3f}")

# the eigenfunctions themselves: log phi is nearly affine in the state with
# slope -gamma*kappa/(1-kappa) for this design
grid = np.linspace(panel.x0.min(), panel.x0.max(), 7)[:, None]
phi_g, phi_star_g = s.eigenfunction_values(sol, basis, grid)
print("\n   x        phi(x)    phi*(x)   phi*phi*")
for x, p, q in zip(grid[:, 0], phi_g, phi_star_g):
    print(f"{x:+.4f}   {p:7.4f}   {q:7.4f}   {p * q:7.4f}")
