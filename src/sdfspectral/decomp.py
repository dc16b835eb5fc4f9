"""Permanent/transitory decomposition series and long-run functionals.

Given the largest eigenvalue rho and positive eigenfunction values along
the sample, the SDF increment factors exactly into a martingale
(permanent) increment and a transitory increment. Long-run yield, entropy
of the permanent component, one-period SDF entropy, and horizon
dependence are scalar functionals of rho and the SDF increments alone,
written once in :func:`long_run_stack` for one fit or a stack of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class DecompSeries:
    """Per-period increments of the SDF and its two components.

    Satisfies m[t] = m_perm[t] * m_trans[t] for every t.
    """

    m: np.ndarray
    m_perm: np.ndarray
    m_trans: np.ndarray


def long_run_stack(rho, m: np.ndarray, counts: Optional[np.ndarray] = None) -> dict:
    """The long-run scalars of eigenvalues rho and their positive SDF increments m.

    Row r of the (R, n) increments m belongs to eigenvalue rho[r]; a
    single series m of length n to a single rho. Keys: rho, y = -log(rho)
    (the long-run yield), L = log(rho) - mean(log m) (the entropy of the
    permanent component), sdf_entropy = log(mean m) - mean(log m) (the
    one-period SDF entropy, zero iff m is constant) and
    horizon_dependence = L - sdf_entropy; each holds one value per row.
    With an (R, n) ``counts`` array, row r's means weight pair t by
    counts[r, t] / n, as a bootstrap replicate drawn with those counts does.
    A NaN eigenvalue, of a discarded replicate, gives NaN scalars.
    """
    rho = np.asarray(rho, dtype=float)
    m = np.asarray(m, dtype=float)
    if np.any(rho <= 0) or np.any(m <= 0):
        raise ValueError("rho and the SDF increments must be positive")
    if counts is None:
        mean_m, mean_log_m = np.mean(m, axis=-1), np.mean(np.log(m), axis=-1)
    else:
        w, n = np.asarray(counts, dtype=float), m.shape[-1]
        mean_m, mean_log_m = (w * m).sum(axis=-1) / n, (w * np.log(m)).sum(axis=-1) / n
    log_rho = np.log(rho)
    entropy_l = log_rho - mean_log_m
    sdf_ent = np.log(mean_m) - mean_log_m
    return {"rho": rho, "y": -log_rho, "L": entropy_l, "sdf_entropy": sdf_ent,
            "horizon_dependence": entropy_l - sdf_ent}


def positive_on_sample(phi_t: np.ndarray, phi_t1: np.ndarray) -> bool:
    """Whether no value phi(X_t) or phi(X_{t+1}) is zero or negative, as :func:`pt_series` needs."""
    return not (np.any(np.asarray(phi_t) <= 0) or np.any(np.asarray(phi_t1) <= 0))


def pt_series(
    rho: float,
    phi_t: np.ndarray,
    phi_t1: np.ndarray,
    m: np.ndarray,
) -> DecompSeries:
    """Construct the permanent and transitory increment series.

    m_perm[t] = m[t] phi(X_{t+1}) / (rho phi(X_t)) and
    m_trans[t] = rho phi(X_t) / phi(X_{t+1}), so their product recovers
    m[t] exactly. Requires phi > 0 at every sample point.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    phi_t = np.asarray(phi_t, dtype=float)
    phi_t1 = np.asarray(phi_t1, dtype=float)
    m = np.asarray(m, dtype=float)
    if phi_t.shape != m.shape or phi_t1.shape != m.shape:
        raise ValueError("phi values and m must be aligned length-n series")
    if not positive_on_sample(phi_t, phi_t1):
        raise ValueError("eigenfunction not positive on sample")
    if np.any(m <= 0):
        raise ValueError("SDF increments must be strictly positive")
    return DecompSeries(m=m, m_perm=m * phi_t1 / (rho * phi_t), m_trans=rho * phi_t / phi_t1)


def change_of_measure(phi_vals: np.ndarray, phi_star_vals: np.ndarray) -> np.ndarray:
    """Pointwise density ratio phi * phi* of the long-run pricing measure.

    Under the scale normalization (unit empirical inner product of the two
    eigenfunctions) the sample mean of the returned values is one.
    """
    return np.asarray(phi_vals, dtype=float) * np.asarray(phi_star_vals, dtype=float)


def _tied_pairs(counts: np.ndarray) -> int:
    """Number of pairs within groups of the given sizes, as a Python int."""
    return int((counts * (counts - 1) // 2).sum())


def _inversions(a: np.ndarray) -> int:
    """Number of pairs i < j with a[i] > a[j], for non-negative integers a.

    Bottom-up merge sort (Knight, JASA 1966): at width w the array is
    sorted within runs of w. Offsetting each value by its run index times
    a bound above max(a) makes the whole array one sorted key vector, so a
    single searchsorted counts, for every value of every odd run, the
    values of the run to its left that exceed it.
    """
    n = a.size
    bound = int(a.max()) + 1
    pos = np.arange(n)
    runs, count, width = a, 0, 1
    while width < n:
        run = pos // width
        keys = runs + run * bound
        right = run % 2 == 1
        # keys[right] - bound keys each right-run value as if it sat in the left run
        above = run[right] * width - np.searchsorted(keys, keys[right] - bound, side="right")
        count += int(above.sum())
        width *= 2
        offset = pos // width * bound
        runs = np.sort(runs + offset) - offset
    return count


def _kendall_tau_b(x: np.ndarray, y: np.ndarray) -> float:
    """Kendall's tau-b by the steps of scipy.stats.kendalltau, with its bits; NaN if x or y is constant."""
    n = x.size
    tot = n * (n - 1) // 2
    _, xr, x_counts = np.unique(x, return_inverse=True, return_counts=True)
    _, yr, y_counts = np.unique(y, return_inverse=True, return_counts=True)
    xtie, ytie = _tied_pairs(x_counts), _tied_pairs(y_counts)
    if xtie == tot or ytie == tot:
        return math.nan
    order = np.lexsort((yr, xr))
    xr, yr = xr[order], yr[order]
    # discordant pairs are the inversions of the y ranks in (x, y) order
    dis = _inversions(yr)
    new_pair = np.r_[True, (xr[1:] != xr[:-1]) | (yr[1:] != yr[:-1]), True]
    ntie = _tied_pairs(np.diff(np.flatnonzero(new_pair)))
    con_minus_dis = tot - xtie - ytie + ntie - 2 * dis
    tau = con_minus_dis / np.sqrt(tot - xtie) / np.sqrt(tot - ytie)
    return float(min(1.0, max(-1.0, tau)))


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """Ranks 1..n of the values of a, tied values sharing the mean of their ranks."""
    _, inverse, counts = np.unique(a, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def _spearman_rho(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman's rho as scipy.stats.spearmanr computes it: the Pearson correlation of average ranks."""
    # entry [1, 0], as scipy reads it: corrcoef divides the two entries in different orders
    return float(np.corrcoef(_average_ranks(x), _average_ranks(y))[1, 0])


def pt_association(series: DecompSeries) -> dict:
    """Association statistics between the log permanent and log transitory increments.

    Returns sample covariance and Pearson correlation of the logs plus the
    rank-based Kendall tau-b and Spearman rho. Correlations are None when
    either series is exactly constant.
    """
    lp = np.log(series.m_perm)
    lt = np.log(series.m_trans)
    if lp.size < 3:
        raise ValueError("need at least 3 periods for association statistics")
    cov = float(np.cov(lp, lt, ddof=1)[0, 1])
    if lp.min() == lp.max() or lt.min() == lt.max():
        return {"cov_log": cov, "corr_log": None, "kendall_tau": None, "spearman_rho": None}
    corr = float(np.corrcoef(lp, lt)[0, 1])
    return {"cov_log": cov, "corr_log": corr, "kendall_tau": _kendall_tau_b(lp, lt),
            "spearman_rho": _spearman_rho(lp, lt)}
