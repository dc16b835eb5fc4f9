"""Bias/RMSE tables for the estimators on the simulation testbed.

Runs a seeded, reduced-scale Monte Carlo (300 replications here; the
acceptance suite uses 2000 and the full study is configurable) for power
utility with a Hermite sieve, and prints the table. Ground truth is the
closed-form population solution of the testbed, never the estimator itself.
"""

import sdfspectral as s

design = s.McDesign(
    ar1=s.Ar1Design(mu=0.005, kappa=0.6, sigma=0.01),
    preferences=s.PowerUtility(beta=0.994, gamma=15.0),
    sample_sizes=(400, 800, 1600),
    replications=300,
    basis_spec=s.BasisSpec(family="hermite", k=8),
    seed=3,
)
table = s.run_mc_study(design)

print(f"design: {design.preferences.kind}, basis: {design.basis_spec.family}, "
      f"replications: {design.replications}")
print(f"truths: rho={table.truths['rho']:.5f}, y={table.truths['y']:.5f}, "
      f"L={table.truths['L']:.5f}\n")
print(f"{'n':>6} {'stat':>9} {'bias':>10} {'rmse':>10}")
for n in design.sample_sizes:
    for stat in ("rho", "y", "L", "phi", "phi_star"):
        cell = table.cells[(n, stat)]
        print(f"{n:>6} {stat:>9} {cell.bias:>+10.4f} {cell.rmse:>10.4f}")
print(f"\nexcluded replicates: {table.excluded}")
print(f"elapsed: {table.elapsed_seconds:.1f}s")
for n, summary in table.se_summary.items():
    print(f"n={n}: median plug-in SE(rho)={summary['median_plugin_se_rho']:.4f}  "
          f"MC sd(rho)={summary['mc_sd_rho']:.4f}")
