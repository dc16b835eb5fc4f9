"""Plug-in asymptotic variances and stationary-bootstrap confidence intervals.

The eigenvalue estimator admits a martingale-difference influence
function, so its asymptotic variance is a plain second moment; the
entropy estimator's influence function is serially correlated and gets a
Newey-West long-run variance. The stationary bootstrap resamples blocks
of transition pairs with geometric lengths and circular wraparound.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from .pfeig import EigenSolution
from .sievemat import Design, StatePanel


@dataclass
class InfluenceSeries:
    """Influence-function series for the eigenvalue and derived functionals."""

    psi_rho: np.ndarray
    v_rho: float
    v_y: float
    rho: float
    v_L: Optional[float] = None
    lr_bandwidth: Optional[int] = None

    @property
    def n(self) -> int:
        return self.psi_rho.size

    def se_rho(self) -> float:
        """Plug-in standard error of the eigenvalue estimator."""
        return math.sqrt(self.v_rho / self.n)


def influence_rho(sol: EigenSolution, design: Design, m: np.ndarray) -> InfluenceSeries:
    """Influence-function series of the eigenvalue estimator.

    psi_t = phi*(X_t) m_t phi(X_{t+1}) - rho phi*(X_t) phi(X_t), under the
    unit-norm / unit-inner-product normalization of the eigenfunctions.
    Its sample mean is zero by the eigenvalue first-order condition, and
    the plug-in variance of rho-hat is mean(psi^2)/n. The variance of the
    yield follows by the delta method for -log(rho).
    """
    if not sol.normalized:
        raise ValueError("influence functions require a normalized eigen solution")
    m = np.asarray(m, dtype=float)
    phi_t = design.b0 @ sol.right_coeffs
    phi_star_t = design.b0 @ sol.left_coeffs
    phi_t1 = design.b1 @ sol.right_coeffs
    psi = phi_star_t * m * phi_t1 - sol.rho * phi_star_t * phi_t
    v_rho = float(np.mean(psi**2))
    return InfluenceSeries(
        psi_rho=psi, v_rho=v_rho, v_y=v_rho / sol.rho**2, rho=sol.rho
    )


def default_bandwidth(n: int) -> int:
    """Newey-West bandwidth ceil(4 (n/100)^(2/9))."""
    return math.ceil(4.0 * (n / 100.0) ** (2.0 / 9.0))


def _newey_west(psi: np.ndarray, bandwidth: int) -> float:
    """Bartlett-kernel long-run variance of a (mean-zero) series."""
    n = psi.size
    psi = psi - psi.mean()
    v = float(psi @ psi) / n
    for lag in range(1, bandwidth + 1):
        w = 1.0 - lag / (bandwidth + 1.0)
        v += 2.0 * w * float(psi[lag:] @ psi[:-lag]) / n
    return v


def variance_entropy(infl: InfluenceSeries, m: np.ndarray, bandwidth: int) -> float:
    """Long-run variance of the permanent-component entropy estimator.

    The entropy influence function combines the eigenvalue influence with
    the centered log SDF: psi_L = psi_rho / rho - (log m - mean log m).
    Because the log-SDF term is serially correlated, the variance is a
    Bartlett-kernel long-run variance at the given bandwidth (bandwidth 0
    degenerates to the sample variance). The result is also stored on
    ``infl``.
    """
    m = np.asarray(m, dtype=float)
    n = infl.n
    if bandwidth < 0:
        raise ValueError("bandwidth must be >= 0")
    if bandwidth >= n:
        raise ValueError(f"bandwidth {bandwidth} must be below n={n}")
    psi_lm = np.log(m) - np.mean(np.log(m))
    psi_L = infl.psi_rho / infl.rho - psi_lm
    v = max(_newey_west(psi_L, bandwidth), 0.0)
    infl.v_L = v
    infl.lr_bandwidth = bandwidth
    return v


def stationary_bootstrap_indices(
    n: int, expected_block: float, rng: np.random.Generator
) -> np.ndarray:
    """One stationary-bootstrap index sequence of length n.

    The first index is uniform on {0..n-1}; each subsequent index
    continues the block (i+1 modulo n, circular wraparound) with
    probability 1 - 1/expected_block and otherwise restarts uniformly.
    Block lengths are geometric with the given mean. Fully determined by
    the generator state.
    """
    if expected_block < 1:
        raise ValueError("expected_block must be >= 1")
    p_restart = 1.0 / expected_block
    restart = rng.random(n) < p_restart
    restart[0] = True
    seg_id = np.cumsum(restart) - 1
    seg_start_pos = np.flatnonzero(restart)
    starts = rng.integers(0, n, size=seg_start_pos.size)
    offsets = np.arange(n) - seg_start_pos[seg_id]
    return (starts[seg_id] + offsets) % n


def _replicate_rng(seed: int, r: int) -> np.random.Generator:
    """Substream generator for replicate r; independent of execution order."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(r,)))


#: replicates handed to the statistic at once; bounds the (block x n)
#: count matrix and the statistic's per-block stacks
BOOTSTRAP_BLOCK = 128
#: optional entry of a statistic's output: per-replicate discard reasons
#: ("" where the replicate is kept)
DISCARD_REASON = "discard_reason"


class BootstrapUnstableError(RuntimeError):
    """More than half of the bootstrap replications failed."""


@dataclass
class BootstrapResult:
    """Percentile confidence intervals from a stationary bootstrap.

    ``discard_reasons`` counts the discarded replicates by the reason the
    statistic gave; "non_finite" where it gave none.
    """

    replicates: dict[str, np.ndarray]
    ci_lo: dict[str, float]
    ci_hi: dict[str, float]
    level: float
    expected_block: float
    discarded: int
    b_total: int = 0
    point: dict[str, float] = field(default_factory=dict)
    discard_reasons: dict[str, int] = field(default_factory=dict)


def bootstrap_ci(
    statistic: Callable[[StatePanel, np.ndarray], Mapping[str, np.ndarray]],
    panel: StatePanel,
    b: int,
    expected_block: float,
    level: float,
    seed: int,
) -> BootstrapResult:
    """Stationary-bootstrap percentile intervals for a panel statistic.

    Replicate r draws its indices from a substream keyed by (seed, r), so
    the result does not depend on execution order. The draws are turned
    into count rows, row r holding how often each transition pair of
    ``panel`` was drawn, and handed to ``statistic(panel, counts)`` in
    blocks of BOOTSTRAP_BLOCK rows. The statistic returns one array per
    scalar, with one entry per row; a non-finite entry discards that
    replicate, and an optional DISCARD_REASON array says why. Exceptions
    raised by the statistic propagate. Errors out when more than half the
    replications are discarded.
    """
    if b < 1:
        raise ValueError("need at least one replication")
    if not 0 < level < 1:
        raise ValueError("level must lie in (0, 1)")
    n = panel.n
    values: dict[str, list[np.ndarray]] = {}
    reasons: list[np.ndarray] = []
    for lo in range(0, b, BOOTSTRAP_BLOCK):
        rows = range(lo, min(lo + BOOTSTRAP_BLOCK, b))
        counts = np.array([
            np.bincount(
                stationary_bootstrap_indices(n, expected_block, _replicate_rng(seed, r)),
                minlength=n,
            )
            for r in rows
        ])
        out = dict(statistic(panel, counts))
        why = out.pop(DISCARD_REASON, None)
        reasons.append(np.full(len(rows), "", dtype=object) if why is None
                       else np.asarray(why, dtype=object))
        for key, v in out.items():
            arr = np.asarray(v, dtype=float)
            if arr.shape != (len(rows),):
                raise ValueError(
                    f"statistic returned shape {arr.shape} for {key!r}; expected ({len(rows)},)"
                )
            values.setdefault(key, []).append(arr)
    values = {key: np.concatenate(v) for key, v in sorted(values.items())}
    kept = np.ones(b, dtype=bool)
    for arr in values.values():
        kept &= np.isfinite(arr)
    discarded = int(b - kept.sum())
    dropped = np.concatenate(reasons)[~kept]
    dropped[dropped == ""] = "non_finite"
    discard_reasons = dict(sorted(Counter(dropped.tolist()).items()))
    if discarded > b / 2:
        raise BootstrapUnstableError(
            f"bootstrap unstable: {discarded}/{b} replications failed ({discard_reasons})"
        )
    replicates = {key: arr[kept] for key, arr in values.items()}
    alpha = (1.0 - level) / 2.0
    ci_lo = {}
    ci_hi = {}
    for k, arr in replicates.items():
        lo, hi = np.quantile(np.sort(arr), [alpha, 1.0 - alpha])
        ci_lo[k], ci_hi[k] = float(lo), float(hi)
    return BootstrapResult(
        replicates=replicates,
        ci_lo=ci_lo,
        ci_hi=ci_hi,
        level=level,
        expected_block=expected_block,
        discarded=discarded,
        b_total=b,
        discard_reasons=discard_reasons,
    )
