"""Monte Carlo harness: simulate designs, run the full pipeline, tabulate.

Replicates are driven by per-replicate substreams keyed on (seed, size,
replicate). Each block of replicates is simulated, evaluated on its
sieve and fitted as one stack (:func:`pipeline.fit_stack`); every array
operation on the stack acts on each replicate's rows alone, so a failed
replicate is censored alone and the records, keyed by statistic, do not
depend on how replicates are grouped into blocks.
Function-valued statistics are scored by their weighted L2 distance to
the population truth on the quadrature grid: the per-replicate distances
average into the RMSE entry, while the bias entry is the distance of the
replicate-averaged function from the truth.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Union

import numpy as np

from .basis import BasisSpec
from .decomp import long_run_stack
from .inference import _replicate_rngs
from .oracle import Ar1Design, quadrature_eig
from .pfeig import _matvec
from .pipeline import fit_stack
from .preferences import PowerUtility, RecursiveUtility
from .sievemat import DesignStack, StatePanel

#: Gauss-Hermite nodes of the quadrature truth and of the function-valued scores
ORACLE_NODES = 80
#: float64 elements of one (replicates, n + 1, k) array of basis values; it
#: sets how many replicates a block stacks, so peak memory stays flat in n and k.
#: A block fills two work buffers sized once per sample size for its largest block
MC_BLOCK_ELEMENTS = 2**18
#: float64 elements of one chunk of (replicates, n + 1) simulated state paths; a
#: chunk holds whole fit blocks, so memory stays flat in the replications too
MC_PATH_ELEMENTS = 2**19


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
    states = _ar1_paths(design, n, [rng])[0]
    return StatePanel.from_states(states, growth=np.exp(states[1:]))


def _ar1_paths(design: Ar1Design, n: int, rngs) -> np.ndarray:
    """(R, n + 1) AR(1) state paths, C-ordered, row r drawn by generator rngs[r].

    Each generator draws as :func:`simulate_ar1` draws. Each step is
    fl(fl(kappa * dev[t-1]) + shock[t]), the arithmetic of an order-1
    ``lfilter`` with b = [1], a = [1, -kappa], bit for bit. Many paths
    run the recursion over time on one (n + 1, R) array, a replicate per
    column; a single path runs it on Python floats.
    """
    kappa = float(design.kappa)
    dev = np.empty((n + 1, len(rngs)))
    for r, rng in enumerate(rngs):
        dev[0, r] = rng.standard_normal()
        dev[1:, r] = rng.standard_normal(n)
    dev[0] *= design.stationary_std
    dev[1:] *= design.sigma
    if len(rngs) == 1:  # a numpy step per time point would cost ~3 s per 10^6 steps
        path = accumulate(dev[1:, 0].tolist(), lambda y, x: x + kappa * y,
                          initial=float(dev[0, 0]))
        dev[:, 0] = np.fromiter(path, float, n + 1)
    else:
        step = np.empty(len(rngs))
        for t in range(1, n + 1):
            np.multiply(dev[t - 1], kappa, out=step)
            dev[t] += step
    states = np.empty((len(rngs), n + 1))
    np.add(dev.T, design.mu, out=states)
    return states


def l2_distance(f_vals, g_vals, weights):
    """Square root of the weighted mean squared difference of two value arrays.

    Reduces over the last axis: a float for two vectors, one distance per
    row when ``f_vals`` stacks several value arrays.
    """
    f = np.asarray(f_vals, dtype=float)
    g = np.asarray(g_vals, dtype=float)
    w = np.asarray(weights, dtype=float)
    if f.shape[-1:] != g.shape:
        raise ValueError("value arrays must have matching shapes")
    if w.shape != g.shape:
        raise ValueError("weights must match the value arrays")
    d = np.sqrt(np.sum(w * (f - g) ** 2, axis=-1) / np.sum(w))
    return float(d) if d.ndim == 0 else d


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
        if not self.sample_sizes:
            raise ValueError("need at least one sample size")


@dataclass
class McCell:
    bias: float
    rmse: float
    flagged: bool = False


@dataclass
class McTable:
    """Bias/RMSE per (sample size, statistic), with exclusion counts."""

    k: int  # the fitted sieve dimension
    cells: dict[tuple[int, str], McCell] = field(default_factory=dict)
    excluded: dict[int, int] = field(default_factory=dict)
    truths: dict[str, float] = field(default_factory=dict)
    se_summary: dict[int, dict[str, float]] = field(default_factory=dict)
    elapsed_seconds: float = 0.0


#: a replicate's record: its scalars, and its functions on the quadrature nodes
_SCALARS = ("rho", "y", "L", "lambda", "se_rho")
_FUNCS = ("phi", "phi_star", "chi")


def _fit_block(
    design: McDesign, states: np.ndarray, nodes: np.ndarray, work: tuple[np.ndarray, ...]
) -> dict[str, np.ndarray]:
    """Records of the replicates whose (R, n + 1) state paths are ``states``, fitted as one stack.

    The Hermite table and the basis values are written into the leading
    replicates of the two ``work`` buffers of :func:`_run_block`, and the
    pricing product into the first R·n·k elements of the table's buffer:
    nothing reads the table once its values are copied. No record is a
    view of either buffer.

    Returns {statistic: values}, an (R,) array per _SCALARS entry and an
    (R, nodes) array per _FUNCS entry, NaN wherever a value is censored,
    so a failed fit has a NaN rho. Each replicate is censored on its own
    in the stack, stage by stage: a basis that cannot be built (zero
    variance, tied knots) has NaN values, so its Gram matrix fails as
    GRAM_NOT_SPD and all of its values are censored. The value-recursion
    statistics are kept whenever the value recursion converged, also when
    a later stage failed (censoring a first-stage statistic on a
    later-stage failure would bias its distribution); the eigen statistics
    only when the whole fit succeeded.
    """
    R, n = states.shape[0], states.shape[1] - 1
    growth = np.exp(states[:, 1:])
    if not np.all(np.isfinite(growth) & (growth > 0)):
        raise ValueError("simulated growth is not finite and positive; the AR(1) law is too extreme")
    records = {s: np.full(R, np.nan) for s in _SCALARS}
    records |= {f: np.full((R, nodes.size), np.nan) for f in _FUNCS}
    table, values = work
    values, const, no_basis = design.basis_spec.evaluate_stack(
        states, nodes, values[:R], table[:, :R]
    )
    if no_basis.all():  # no basis to fit: the values have no columns
        return records
    b1, b_nodes = values[:, 1:n + 1], values[:, n + 1:]
    product = table.reshape(-1)[:b1.size].reshape(b1.shape)
    fit = fit_stack(DesignStack(values[:, :n], b1, growth, const, product), design.preferences)
    lr = long_run_stack(fit.eig.rho, fit.m)  # NaN where the fit failed, as its rho and sample are
    records |= {"rho": lr["rho"], "y": lr["y"], "L": lr["L"], "se_rho": fit.sample.se_rho,
                "phi": _matvec(b_nodes, fit.eig.right), "phi_star": _matvec(b_nodes, fit.eig.left)}
    if fit.fixed_point is not None:
        solved = fit.fixed_point.reason == ""
        records["lambda"][solved] = fit.fixed_point.lam[solved]
        records["chi"][solved] = _matvec(b_nodes[solved], fit.fixed_point.chi_coeffs[solved])
    return records


def _run_block(
    design: McDesign, n: int, reps: range, nodes: np.ndarray
) -> dict[str, np.ndarray]:
    """The :func:`_fit_block` records of the replicates ``reps`` at size n, in replicate order.

    The range is simulated in chunks of as many whole blocks as keep a
    chunk's state paths within MC_PATH_ELEMENTS, and each chunk is fitted
    in blocks of as many replicates as keep one block's basis values
    within MC_BLOCK_ELEMENTS. Every block fills the same two work
    buffers, allocated once for the largest block: the Hermite table,
    whose memory then holds the pricing product, and the basis values at
    the sample and the nodes.
    """
    k = _sieve_dim(design.basis_spec)
    size = max(1, min(len(reps), MC_BLOCK_ELEMENTS // ((n + 1) * k)))
    chunk = size * max(1, MC_PATH_ELEMENTS // ((n + 1) * size))
    width = n + 1 + nodes.size  # the states X_0..X_n and the nodes
    work = (np.empty((k, size, width)), np.empty((size, width, k)))
    blocks = []
    for lo in range(0, len(reps), chunk):
        # keyed by n itself: a run's streams do not depend on its other sizes
        rngs = _replicate_rngs(design.seed, [(n, rep) for rep in reps[lo:lo + chunk]])
        states = _ar1_paths(design.ar1, n, rngs)
        blocks += [_fit_block(design, states[j:j + size], nodes, work)
                   for j in range(0, len(states), size)]
    return {s: np.concatenate([block[s] for block in blocks]) for s in _SCALARS + _FUNCS}


def _kept(values: np.ndarray) -> np.ndarray:
    """The replicates' values of one statistic without the censored ones, in replicate order.

    A censored scalar is NaN, and so is a censored function at every node.
    """
    return values[~np.isnan(values if values.ndim == 1 else values[:, 0])]


def run_mc_study(design: McDesign) -> McTable:
    """Run the Monte Carlo experiment and tabulate bias/RMSE.

    Fallback eigen-solutions and non-converged value recursions are counted
    and excluded; a cell is flagged when more than 10% of its replicates
    were excluded.
    """
    t_start = time.monotonic()
    k = _sieve_dim(design.basis_spec)
    for n in design.sample_sizes:
        if n < 2 * k:
            raise ValueError(f"sample size {n} below twice the sieve dimension")
    truth = quadrature_eig(design.ar1, design.preferences, ORACLE_NODES)
    recursive = isinstance(design.preferences, RecursiveUtility)
    truths = {"rho": truth.rho, "y": truth.yield_y, "L": truth.entropy_L}
    if recursive:
        truths["lambda"] = truth.lam
    stats = ["rho", "y", "L", "phi", "phi_star"] + (["lambda", "chi"] if recursive else [])

    table = McTable(k=k, truths=truths)

    for n in design.sample_sizes:
        records = _run_block(design, n, range(design.replications), truth.nodes)
        table.excluded[n] = int(np.isnan(records["rho"]).sum())  # a failed fit has no rho
        for s in stats:
            vals = _kept(records[s])
            if len(vals) == 0:
                raise RuntimeError(f"all replicates failed for {s!r} at n={n}")
            if s in truths:
                err = vals - truths[s]
                bias, rmse = float(np.mean(err)), float(np.sqrt(np.mean(err**2)))
            else:
                f_true = getattr(truth, s)
                bias = l2_distance(vals.mean(axis=0), f_true, truth.weights)
                rmse = float(np.mean(l2_distance(vals, f_true, truth.weights)))
            table.cells[(n, s)] = McCell(
                bias=bias, rmse=rmse, flagged=len(vals) < 0.90 * design.replications
            )
        rho = _kept(records["rho"])
        table.se_summary[n] = {
            "median_plugin_se_rho": float(np.median(_kept(records["se_rho"]))),
            # a sample standard deviation needs two replicates
            "mc_sd_rho": float(np.std(rho, ddof=1)) if rho.size > 1 else np.nan,
        }

    table.elapsed_seconds = time.monotonic() - t_start
    return table


def _sieve_dim(spec: BasisSpec) -> int:
    """The dimension k of the univariate basis that ``spec.build`` returns.

    It is built on max(spec.k, 2) evenly spaced points, enough for any
    B-spline's distinct quantile knots.
    """
    return spec.build(np.linspace(0.0, 1.0, max(spec.k or 0, 2))).dimension_k

