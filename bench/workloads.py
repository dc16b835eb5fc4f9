"""The four workloads: their inputs, their CLI calls and their output checks.

Each workload writes its inputs from the seed alone, names the
``sdfspectral`` argument vectors of one round of operations, and checks
the outputs of each operation against ``reference`` (never against saved
output). A round is one operation, except on ``calibrate`` (see there).
Checks return a list of failure messages; an empty list means correct.
An output file that is missing or unreadable raises (OSError, ValueError,
KeyError), which the caller counts as a failed check.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

import numpy as np

import reference as ref

#: VAR(1) for (consumption growth, earnings growth): means, persistence, shock sds
VAR_MU = np.array([0.005, 0.005])
VAR_A = np.array([[0.3, 0.1], [0.0, 0.2]])
VAR_SD = np.array([0.005, 0.012])
#: univariate AR(1) log-growth law of the bootstrap and mc workloads
AR1 = {"mu": 0.005, "kappa": 0.6, "sigma": 0.01}
#: preferences of the decompose (recursive), bootstrap and mc (power) workloads
PREFS = {"beta": 0.994, "gamma": 15.0}


@dataclass
class Prepared:
    """One workload's operation and what its checks need to know."""

    argv: list[str]
    out_dir: str
    replicates_per_op: int
    context: dict = field(default_factory=dict)


def _rng(seed: int, workload: str, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, workload)), *stream])


def _var_states(rng: np.random.Generator, n: int) -> np.ndarray:
    x = np.empty((n + 1, 2))
    x[0] = VAR_MU
    shocks = VAR_SD * rng.standard_normal((n, 2))
    for t in range(n):
        x[t + 1] = VAR_MU + VAR_A @ (x[t] - VAR_MU) + shocks[t]
    return x


def _ar1_states(rng: np.random.Generator, n: int) -> np.ndarray:
    mu, kappa, sigma = AR1["mu"], AR1["kappa"], AR1["sigma"]
    x = np.empty(n + 1)
    x[0] = mu + sigma / math.sqrt(1.0 - kappa**2) * rng.standard_normal()
    shocks = sigma * rng.standard_normal(n)
    for t in range(n):
        x[t + 1] = mu + kappa * (x[t] - mu) + shocks[t]
    return x


def _write_csv(path: str, states: dict[str, np.ndarray], flows: dict[str, np.ndarray]) -> None:
    """Panel CSV in the CLI's time alignment: flow columns leave row 0 blank."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([*states, *flows])
        for i in range(len(next(iter(states.values())))):
            writer.writerow([format(v[i], ".17g") for v in states.values()]
                            + ["" if i == 0 else format(v[i - 1], ".17g") for v in flows.values()])


def _read_csv(path: str) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {k: np.array([float(r[k]) for r in rows]) for k in rows[0]}


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------- decompose

DECOMPOSE_N = 2400
SPARSE = {"degree": 4, "cap": 5}


def prepare_decompose(seed: int, work: str) -> list[Prepared]:
    states = _var_states(_rng(seed, "decompose"), DECOMPOSE_N)
    growth = np.exp(states[1:, 0])
    path = os.path.join(work, "panel.csv")
    _write_csv(path, {"g": states[:, 0], "d": states[:, 1]}, {"G": growth})
    out = os.path.join(work, "out")
    argv = ["decompose", "--input", path, "--state-cols", "g,d", "--growth-col", "G",
            "--preferences", "recursive",
            "--beta", repr(PREFS["beta"]), "--gamma", repr(PREFS["gamma"]),
            "--basis", "sparse", "--degree", str(SPARSE["degree"]), "--cap", str(SPARSE["cap"]),
            "--out", out]
    return [Prepared(argv, out, 1, {"states": states, "growth": growth})]


def check_decompose(p: Prepared) -> list[str]:
    fails = []
    states, growth = p.context["states"], p.context["growth"]
    for name in ("series.csv", "scalars.json", "eigenfunctions.csv", "provenance.json",
                 "change_of_measure_sample.csv", "series.svg", "eigenfunctions_phi.svg",
                 "eigenfunctions_phi_star.svg", "eigenfunctions_change_of_measure.svg"):
        path = os.path.join(p.out_dir, name)
        if not os.path.isfile(path) or os.path.getsize(path) == 0:
            fails.append(f"missing output {name}")
        elif name.endswith(".svg"):
            try:
                ET.parse(path)
            except ET.ParseError as exc:
                fails.append(f"{name} is not well-formed SVG: {exc}")
    if fails:
        return fails
    series = _read_csv(os.path.join(p.out_dir, "series.csv"))
    scalars = _read_json(os.path.join(p.out_dir, "scalars.json"))
    com = _read_csv(os.path.join(p.out_dir, "change_of_measure_sample.csv"))
    m = series["m"]

    # exact identities of the decomposition, to rounding
    err = np.max(np.abs(series["m_perm"] * series["m_trans"] / m - 1.0))
    if err > 1e-13:
        fails.append(f"m != m_perm * m_trans: max relative error {err:.3g}")
    ident = scalars["entropy_L"] + scalars["yield_y"] + float(np.mean(np.log(m)))
    if abs(ident) > 1e-13:
        fails.append(f"L + y + mean log m = {ident:.3g}, expected 0")
    phi, phi_star = com["phi"], com["phi_star"]
    for label, val in (("mean phi^2", np.mean(phi**2)), ("mean phi*phi_star", np.mean(phi * phi_star))):
        if abs(val - 1.0) > 1e-12:
            fails.append(f"{label} = {val:.15g}, expected 1")
    if not np.all(phi > 0):
        fails.append(f"phi <= 0 at {int(np.sum(phi <= 0))} sample points")

    # the eigenvalue from the benchmark's own sieve and eigensolve
    sieve = ref.polynomial_sieve(states, SPARSE["degree"], SPARSE["cap"])
    b0, b1 = sieve(states[:-1]), sieve(states[1:])
    rho = ref.largest_real_eigenvalue(ref.pricing(b0, b1, m), ref.gram(b0))
    if _rel(scalars["rho"], rho) > 1e-10:
        fails.append(f"rho {scalars['rho']!r} differs from the reference {rho!r}")

    # the continuation value and the SDF from the benchmark's own value recursion
    beta, gamma = PREFS["beta"], PREFS["gamma"]
    lam, chi0, chi1 = ref.value_recursion(b0, b1, growth, beta, gamma)
    if _rel(scalars["lambda"], lam) > 1e-8:
        fails.append(f"lambda {scalars['lambda']!r} differs from the reference {lam!r}")
    m_ref = ref.recursive_sdf(growth, beta, gamma, lam, chi0, chi1)
    err = np.max(np.abs(m / m_ref - 1.0))
    if err > 1e-7:
        fails.append(f"SDF series differs from the reference: max relative error {err:.3g}")
    return fails


# ---------------------------------------------------------------- bootstrap

BOOTSTRAP_N = 800
#: the bootstrap panel is drawn once from this generator seed, and --seed
#: drives the resampling; see the README for why the panel is not seeded
BOOTSTRAP_PANEL_SEED = 0
BOOTSTRAP = {"b": 1000, "block": 6.0, "level": 0.90, "k": 8}
#: replicates of the benchmark's own bootstrap
REFERENCE_B = 4000
#: half-width, in probability, of the agreement band for each rho endpoint
#: (five standard errors; see the README)
QUANTILE_TOL = 5.0 * math.sqrt(0.05 * 0.95 * (1.0 / BOOTSTRAP["b"] + 1.0 / REFERENCE_B))


def prepare_bootstrap(seed: int, work: str) -> list[Prepared]:
    states = _ar1_states(_rng(BOOTSTRAP_PANEL_SEED, "bootstrap"), BOOTSTRAP_N)
    growth = np.exp(states[1:])
    path = os.path.join(work, "panel.csv")
    _write_csv(path, {"g": states}, {"G": growth})
    out = os.path.join(work, "out")
    argv = ["bootstrap", "--input", path, "--state-cols", "g", "--growth-col", "G",
            "--preferences", "power",
            "--beta", repr(PREFS["beta"]), "--gamma", repr(PREFS["gamma"]),
            "--basis", "hermite", "--k", str(BOOTSTRAP["k"]),
            "--boot-b", str(BOOTSTRAP["b"]), "--block", repr(BOOTSTRAP["block"]),
            "--level", repr(BOOTSTRAP["level"]), "--seed", str(seed), "--out", out]
    return [Prepared(argv, out, BOOTSTRAP["b"], {"states": states, "growth": growth, "seed": seed})]


def check_bootstrap(p: Prepared) -> list[str]:
    from sdfspectral.cli import validate_summary_csv

    rows = {r["statistic"]: r for r in validate_summary_csv(os.path.join(p.out_dir, "summary.csv"))}
    fails = []
    for stat in ("rho", "y", "L", "sdf_entropy", "horizon_dependence"):
        r = rows.get(stat)
        if r is None or r["ci_lo"] is None:
            fails.append(f"summary.csv has no interval for {stat}")
        elif not r["ci_lo"] < r["ci_hi"]:
            fails.append(f"interval for {stat} is not ordered: {r['ci_lo']} .. {r['ci_hi']}")
    if fails:
        return fails

    states, growth = p.context["states"], p.context["growth"]
    m = PREFS["beta"] * np.exp(-PREFS["gamma"] * np.log(growth))
    sieve = ref.polynomial_sieve(states, BOOTSTRAP["k"] - 1)
    b0, b1 = sieve(states[:-1]), sieve(states[1:])
    rho = ref.largest_real_eigenvalue(ref.pricing(b0, b1, m), ref.gram(b0))
    if _rel(rows["rho"]["estimate"], rho) > 1e-10:
        fails.append(f"rho estimate {rows['rho']['estimate']!r} differs from the reference {rho!r}")

    # own stationary bootstrap with the basis held fixed, as the program does
    n, k = b0.shape
    rng = _rng(p.context["seed"], "reference bootstrap")  # a stream apart from the program's
    idx = ref.stationary_bootstrap(n, BOOTSTRAP["block"], REFERENCE_B, rng)
    counts = np.stack([np.bincount(row, minlength=n) for row in idx]).astype(float)
    G = (counts @ (b0[:, :, None] * b0[:, None, :]).reshape(n, k * k) / n).reshape(-1, k, k)
    M = (counts @ (b0[:, :, None] * (m[:, None] * b1)[:, None, :]).reshape(n, k * k) / n)
    rhos = ref.largest_real_eigenvalue(M.reshape(-1, k, k), G)
    rhos = np.sort(rhos[rhos > 0])
    alpha = (1.0 - BOOTSTRAP["level"]) / 2.0
    for label, bound, p_target in (("ci_lo", rows["rho"]["ci_lo"], alpha),
                                   ("ci_hi", rows["rho"]["ci_hi"], 1.0 - alpha)):
        share = np.searchsorted(rhos, bound) / rhos.size
        if abs(share - p_target) > QUANTILE_TOL:
            fails.append(
                f"rho {label} {bound:.6g} sits at the reference bootstrap's "
                f"{share:.4f} quantile, expected {p_target:.2f} +- {QUANTILE_TOL:.4f}"
            )
    return fails


# ---------------------------------------------------------------- calibrate

CALIBRATE_N = 1200
CALIBRATE_TRUE = {"beta": 0.98, "gamma": 25.0}
#: sd of the second asset's pricing noise, before it is made orthogonal to the instruments
RETURN_NOISE = 0.01
#: ten times the Nelder-Mead xatol: the criterion is zero at the generating values
CALIBRATE_TOL = {"beta": 1e-4, "gamma": 1e-4}
#: panels per round: the fixed-point iteration count of a call depends on its
#: panel, and a round of several panels keeps that out of the run's median
CALIBRATE_PANELS = 4


def prepare_calibrate(seed: int, work: str) -> list[Prepared]:
    return [_prepare_calibrate_panel(_rng(seed, "calibrate", j), os.path.join(work, f"panel{j}"))
            for j in range(CALIBRATE_PANELS)]


def _prepare_calibrate_panel(rng: np.random.Generator, work: str) -> Prepared:
    os.makedirs(work)
    states = _var_states(rng, CALIBRATE_N)
    growth = np.exp(states[1:, 0])
    beta, gamma = CALIBRATE_TRUE["beta"], CALIBRATE_TRUE["gamma"]
    sieve = ref.polynomial_sieve(states, SPARSE["degree"], SPARSE["cap"])
    lam, chi0, chi1 = ref.value_recursion(sieve(states[:-1]), sieve(states[1:]), growth, beta, gamma)
    if np.any(chi0 <= 0) or np.any(chi1 <= 0):
        raise RuntimeError("reference continuation value is not positive on the sample")
    m = ref.recursive_sdf(growth, beta, gamma, lam, chi0, chi1)
    # second asset: pricing errors orthogonal to the instruments in sample, so
    # both Euler equations hold exactly at the generating (beta, gamma)
    inst = ref.polynomial_sieve(states, 2, 3)(states[:-1])
    noise = RETURN_NOISE * rng.standard_normal(CALIBRATE_N)
    noise -= inst @ np.linalg.lstsq(inst, noise, rcond=None)[0]
    returns = np.column_stack([1.0 / m, (1.0 + noise) / m])
    path = os.path.join(work, "panel.csv")
    _write_csv(path, {"g": states[:, 0], "d": states[:, 1]},
               {"G": growth, "R1": returns[:, 0], "R2": returns[:, 1]})
    out = os.path.join(work, "out")
    argv = ["calibrate", "--input", path, "--state-cols", "g,d", "--growth-col", "G",
            "--return-cols", "R1,R2", "--basis", "sparse",
            "--degree", str(SPARSE["degree"]), "--cap", str(SPARSE["cap"]), "--out", out]
    return Prepared(argv, out, 1)


def check_calibrate(p: Prepared) -> list[str]:
    cal = _read_json(os.path.join(p.out_dir, "calibration.json"))
    trace = _read_csv(os.path.join(p.out_dir, "trace.csv"))
    fails = []
    for name, est in (("beta", cal["beta_hat"]), ("gamma", cal["gamma_hat"])):
        if abs(est - CALIBRATE_TRUE[name]) > CALIBRATE_TOL[name]:
            fails.append(f"{name}_hat {est!r} misses {CALIBRATE_TRUE[name]} "
                         f"by more than {CALIBRATE_TOL[name]}")
    crit = trace["criterion"]
    finite = crit[np.isfinite(crit)]
    if finite.size == 0 or cal["criterion_value"] != finite.min():
        fails.append(f"criterion {cal['criterion_value']!r} is not the smallest finite "
                     f"value in trace.csv ({finite.min() if finite.size else None!r})")
    return fails


# ---------------------------------------------------------------- mc

MC = {"k": 8, "reps": 300, "sizes": (400, 1600)}


def prepare_mc(seed: int, work: str) -> list[Prepared]:
    out = os.path.join(work, "out")
    argv = ["mc", "--design", "power", "--beta", repr(PREFS["beta"]),
            "--gamma", repr(PREFS["gamma"]), "--basis", "hermite", "--k", str(MC["k"]),
            "--reps", str(MC["reps"]), "--sizes", ",".join(map(str, MC["sizes"])),
            "--seed", str(seed), "--out", out]
    return [Prepared(argv, out, MC["reps"] * len(MC["sizes"]))]


def check_mc(p: Prepared) -> list[str]:
    meta = _read_json(os.path.join(p.out_dir, "mc_table_meta.json"))
    with open(os.path.join(p.out_dir, "mc_table.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    fails = []
    truth = ref.ar1_power_truth(AR1["mu"], AR1["kappa"], AR1["sigma"], PREFS["beta"], PREFS["gamma"])
    for stat, val in truth.items():
        got = meta["truths"].get(stat)
        if got is None or _rel(got, val) > 1e-9:
            fails.append(f"truth {stat} = {got!r}, closed form {val!r}")
    for r in rows:
        if not abs(float(r["bias"])) <= float(r["rmse"]):
            fails.append(f"|bias| > rmse for {r['statistic']} at n={r['n']}")
    rmse = {int(r["n"]): float(r["rmse"]) for r in rows if r["statistic"] == "rho"}
    lo, hi = MC["sizes"]
    if set(rmse) != {lo, hi}:
        return fails + [f"mc_table.csv lacks rho rows for sizes {MC['sizes']}"]
    # Reported, not gated: spurious eigenpairs make this ratio range from
    # 0.6 to 13 across seeds (README, "Checks").
    print(f"mc: RMSE(rho) ratio n={lo}/n={hi} = {rmse[lo] / rmse[hi]:.3f}, "
          f"n^-1/2 rate gives {math.sqrt(hi / lo):.3f}", file=sys.stderr)
    return fails


#: name -> (write inputs and name a round of operations, check one operation's outputs)
WORKLOADS = {
    "decompose": (prepare_decompose, check_decompose),
    "bootstrap": (prepare_bootstrap, check_bootstrap),
    "calibrate": (prepare_calibrate, check_calibrate),
    "mc": (prepare_mc, check_mc),
}
