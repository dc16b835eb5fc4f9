"""Monte Carlo harness: simulate designs, run the full pipeline, tabulate.

Replicates are driven by per-replicate substreams keyed on (seed, size,
replicate), so tables are bit-identical regardless of how replicates are
scheduled across workers. Function-valued statistics are scored by their
weighted L2 distance to the population truth on the quadrature grid:
the per-replicate distances average into the RMSE entry, while the bias
entry is the distance of the replicate-averaged function from the truth.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
from scipy.signal import lfilter

from .basis import BasisSpec
from .csvout import write_csv
from .oracle import Ar1Design, quadrature_eig
from .pipeline import FitFailedError, fit_panel
from .preferences import PowerUtility, RecursiveUtility
from .sievemat import Design, StatePanel

WORKERS_ENV = "SDFSPECTRAL_THREADS"
#: Gauss-Hermite nodes of the quadrature truth and of the function-valued scores
ORACLE_NODES = 80


def resolve_workers(requested: Optional[int] = None) -> int:
    """Worker count: explicit argument, else the SDFSPECTRAL_THREADS cap, else 1."""
    if requested is not None:
        return max(1, requested)
    env = os.environ.get(WORKERS_ENV)
    if env:
        return max(1, int(env))
    return 1


def simulate_ar1(
    design: Ar1Design, n: int, seed: Union[int, np.random.Generator]
) -> StatePanel:
    """Simulate n transitions of the AR(1) log-growth state.

    The initial state is drawn from the stationary law, so no burn-in is
    needed; growth is exp of the next-period state. The generator draws
    the initial state first and the n innovations second, which pins the
    output for a given seed.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    dev = np.empty(n + 1)
    dev[0] = design.stationary_std * rng.standard_normal()
    shocks = design.sigma * rng.standard_normal(n)
    dev[1:] = lfilter([1.0], [1.0, -design.kappa], shocks, zi=[design.kappa * dev[0]])[0]
    states = design.mu + dev
    return StatePanel.from_states(states, growth=np.exp(states[1:]))


def l2_distance(f_vals, g_vals, weights=None) -> float:
    """Square root of the (weighted) mean squared difference of two value arrays."""
    f = np.asarray(f_vals, dtype=float)
    g = np.asarray(g_vals, dtype=float)
    if f.shape != g.shape:
        raise ValueError("value arrays must have matching shapes")
    if weights is None:
        return float(np.sqrt(np.mean((f - g) ** 2)))
    w = np.asarray(weights, dtype=float)
    if w.shape != f.shape:
        raise ValueError("weights must match the value arrays")
    return float(np.sqrt(np.sum(w * (f - g) ** 2) / np.sum(w)))


@dataclass(frozen=True)
class McDesign:
    """One Monte Carlo experiment: data law, preferences, sieve, sizes, seed."""

    ar1: Ar1Design
    preferences: Union[PowerUtility, RecursiveUtility]
    sample_sizes: tuple[int, ...]
    replications: int
    basis_spec: BasisSpec
    seed: int = 0

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("need at least one replication")


@dataclass
class McCell:
    bias: float
    rmse: float
    flagged: bool = False


@dataclass
class McTable:
    """Bias/RMSE per (sample size, statistic), with exclusion counts."""

    design_kind: str
    basis_family: str
    replications: int
    seed: int
    cells: dict[tuple[int, str], McCell] = field(default_factory=dict)
    excluded: dict[int, int] = field(default_factory=dict)
    truths: dict[str, float] = field(default_factory=dict)
    se_summary: dict[int, dict[str, float]] = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    def bias(self, n: int, stat: str) -> float:
        return self.cells[(n, stat)].bias

    def rmse(self, n: int, stat: str) -> float:
        return self.cells[(n, stat)].rmse

    def to_csv(self, path) -> None:
        write_csv(
            path,
            ["design", "basis", "n", "statistic", "bias", "rmse",
             "replications", "excluded", "flagged"],
            [
                [self.design_kind, self.basis_family, n, stat, cell.bias, cell.rmse,
                 self.replications, self.excluded.get(n, 0), int(cell.flagged)]
                for (n, stat), cell in sorted(self.cells.items())
            ],
        )

    def metadata(self) -> dict:
        return {
            "design": self.design_kind,
            "basis": self.basis_family,
            "replications": self.replications,
            "seed": self.seed,
            "excluded": {str(k): v for k, v in self.excluded.items()},
            "truths": self.truths,
            "elapsed_seconds": self.elapsed_seconds,
        }


_SCALAR_STATS = ("rho", "y", "L")
_FUNC_STATS = ("phi", "phi_star")


def _replicate_rng(seed: int, n: int, rep: int) -> np.random.Generator:
    # keyed by the sample size itself so a run's streams do not depend on
    # which other sizes were requested alongside it
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(n, rep))
    )


def _one_replicate(design: McDesign, n: int, rng: np.random.Generator, nodes: np.ndarray) -> dict:
    """Estimate one simulated sample with :func:`pipeline.fit_panel`.

    A failed fit sets ``failed``. The value-recursion statistics enter the
    record whenever the value recursion converged, also when a later
    stage failed (censoring a first-stage statistic on a later-stage
    failure would bias its distribution); the eigen statistics only when
    the whole fit succeeded.
    """
    panel = simulate_ar1(design.ar1, n, rng)
    out: dict = {}
    fit = fp = None
    try:
        sieve = Design(design.basis_spec.build(panel.states), panel)
        bn = sieve.basis.evaluate_many(nodes)
        fit = fit_panel(sieve, design.preferences)
        fp = fit.fixed_point
    except (ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
        out["failed"] = type(exc).__name__
        if isinstance(exc, FitFailedError):
            fp = exc.fixed_point
    if fp is not None:
        out["lambda"] = fp.lam
        out["chi_vals"] = bn @ fp.chi_coeffs
    if fit is None or fit.sol.is_fallback:
        out.setdefault("failed", "fallback")
        return out
    sol = fit.sol
    out["rho"] = sol.rho
    out["y"] = -math.log(sol.rho)
    out["L"] = math.log(sol.rho) - float(np.mean(np.log(fit.m)))
    out["se_rho"] = fit.influence.se_rho()
    out["phi_vals"] = bn @ sol.right_coeffs
    out["phi_star_vals"] = bn @ sol.left_coeffs
    return out


def _run_block(args) -> dict:
    """Accumulate one contiguous block of replicates (worker entry point)."""
    design, n, rep_lo, rep_hi, truth_payload = args
    nodes = truth_payload["nodes"]
    weights = truth_payload["weights"]
    func_stats = truth_payload["func_stats"]
    acc = {
        "excluded": 0,
        "scalars": {s: [] for s in truth_payload["scalar_stats"]},
        "se_rho": [],
        "dists": {s: [] for s in func_stats},
        "vals": {s: [] for s in func_stats},
    }
    for rep in range(rep_lo, rep_hi):
        rec = _one_replicate(design, n, _replicate_rng(design.seed, n, rep), nodes)
        if "failed" in rec:
            acc["excluded"] += 1
        for s in acc["scalars"]:
            if s in rec:
                acc["scalars"][s].append(rec[s])
        if "se_rho" in rec:
            acc["se_rho"].append(rec["se_rho"])
        for s in func_stats:
            key = f"{s}_vals"
            if key in rec:
                acc["dists"][s].append(l2_distance(rec[key], truth_payload[s], weights))
                acc["vals"][s].append(rec[key])
    return acc


def run_mc_study(design: McDesign, workers: Optional[int] = None) -> McTable:
    """Run the Monte Carlo experiment and tabulate bias/RMSE.

    Fallback eigen-solutions and non-converged value recursions are counted
    and excluded; a cell is flagged when more than 10% of its replicates
    were excluded. ``workers`` (or the SDFSPECTRAL_THREADS environment
    variable) enables process-level parallelism over replicates without
    changing any numbers.
    """
    t_start = time.monotonic()
    truth = quadrature_eig(design.ar1, design.preferences, ORACLE_NODES)
    recursive = isinstance(design.preferences, RecursiveUtility)
    scalar_stats = list(_SCALAR_STATS) + (["lambda"] if recursive else [])
    func_stats = list(_FUNC_STATS) + (["chi"] if recursive else [])

    payload = {
        "nodes": truth.nodes,
        "weights": truth.weights,
        "scalar_stats": scalar_stats,
        "func_stats": func_stats,
        "phi": truth.phi,
        "phi_star": truth.phi_star,
    }
    if recursive:
        payload["chi"] = truth.chi

    truths = {"rho": truth.rho, "y": truth.yield_y, "L": truth.entropy_L}
    if recursive:
        truths["lambda"] = truth.lam

    nworkers = resolve_workers(workers)
    table = McTable(
        design_kind=design.preferences.kind,
        basis_family=design.basis_spec.family,
        replications=design.replications,
        seed=design.seed,
        truths=truths,
    )

    for n in design.sample_sizes:
        if n < 2 * _basis_dim_hint(design.basis_spec):
            raise ValueError(f"sample size {n} below twice the sieve dimension")
        blocks = _split_blocks(design.replications, nworkers)
        jobs = [(design, n, lo, hi, payload) for lo, hi in blocks]
        if len(jobs) == 1:
            results = [_run_block(job) for job in jobs]
        else:
            with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
                results = list(pool.map(_run_block, jobs))

        excluded = sum(r["excluded"] for r in results)
        table.excluded[n] = excluded

        for s in scalar_stats:
            vals = np.concatenate([np.asarray(r["scalars"][s]) for r in results])
            if vals.size == 0:
                raise RuntimeError(f"all replicates failed for {s!r} at n={n}")
            err = vals - truths[s]
            table.cells[(n, s)] = McCell(
                bias=float(np.mean(err)),
                rmse=float(np.sqrt(np.mean(err**2))),
                flagged=vals.size < 0.90 * design.replications,
            )
        for s in func_stats:
            dists = np.concatenate([np.asarray(r["dists"][s]) for r in results])
            vals = [v for r in results for v in r["vals"][s]]
            if not vals:
                raise RuntimeError(f"all replicates failed for {s!r} at n={n}")
            # stack and reduce once, in replicate order, so the result does
            # not depend on how replicates were blocked across workers
            mean_fn = np.vstack(vals).mean(axis=0)
            table.cells[(n, s)] = McCell(
                bias=l2_distance(mean_fn, payload[s], truth.weights),
                rmse=float(np.mean(dists)),
                flagged=len(vals) < 0.90 * design.replications,
            )
        se_vals = np.concatenate([np.asarray(r["se_rho"]) for r in results])
        rho_vals = np.concatenate([np.asarray(r["scalars"]["rho"]) for r in results])
        table.se_summary[n] = {
            "median_plugin_se_rho": float(np.median(se_vals)),
            "mc_sd_rho": float(np.std(rho_vals, ddof=1)),
        }

    table.elapsed_seconds = time.monotonic() - t_start
    return table


def _basis_dim_hint(spec: BasisSpec) -> int:
    if spec.k is not None:
        return spec.k
    if spec.degree is not None:
        return spec.degree + 1
    return 1


def _split_blocks(total: int, nworkers: int) -> list[tuple[int, int]]:
    """Contiguous replicate ranges; one per worker (at least one rep each)."""
    nblocks = min(nworkers, total)
    edges = np.linspace(0, total, nblocks + 1, dtype=int)
    return [(int(lo), int(hi)) for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo]


def write_mc_outputs(table: McTable, out_dir, stem: str = "mc_table") -> None:
    """Write the table CSV and a metadata JSON sidecar."""
    os.makedirs(out_dir, exist_ok=True)
    table.to_csv(os.path.join(out_dir, f"{stem}.csv"))
    with open(os.path.join(out_dir, f"{stem}_meta.json"), "w") as fh:
        json.dump(table.metadata(), fh, indent=2)
        fh.write("\n")
