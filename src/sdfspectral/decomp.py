"""Permanent/transitory decomposition series and long-run functionals.

Given the largest eigenvalue rho and positive eigenfunction values along
the sample, the SDF increment factors exactly into a martingale
(permanent) increment and a transitory increment. Long-run yield, entropy
of the permanent component, one-period SDF entropy, and horizon
dependence are scalar functionals of the same objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import stats

from .csvout import write_csv, write_json


@dataclass(frozen=True)
class DecompSeries:
    """Per-period increments of the SDF and its two components.

    Satisfies m[t] = m_perm[t] * m_trans[t] for every t; the scalar
    functionals are carried alongside for serialization.
    """

    m: np.ndarray
    m_perm: np.ndarray
    m_trans: np.ndarray
    rho: float
    yield_y: float
    entropy_L: float
    sdf_entropy: float
    horizon_dependence: float


def long_run_yield(rho: float) -> float:
    """Long-run discount-bond yield, -log(rho)."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    return -math.log(rho)


def permanent_entropy(rho: float, m: np.ndarray) -> float:
    """Entropy of the permanent component: log(rho) - mean(log m)."""
    m = np.asarray(m, dtype=float)
    if np.any(m <= 0):
        raise ValueError("SDF increments must be strictly positive")
    return math.log(rho) - float(np.mean(np.log(m)))


def sdf_entropy(m: np.ndarray) -> float:
    """One-period SDF entropy: log(mean m) - mean(log m). Zero iff m constant."""
    m = np.asarray(m, dtype=float)
    if np.any(m <= 0):
        raise ValueError("SDF increments must be strictly positive")
    return math.log(float(np.mean(m))) - float(np.mean(np.log(m)))


def long_run_scalars(rho: float, m: np.ndarray) -> dict:
    """The scalar functionals of rho and the SDF increments m, which need no eigenfunction values.

    Keys: rho, y (the long-run yield), L (the permanent entropy),
    sdf_entropy, and horizon_dependence = L - sdf_entropy.
    """
    entropy_l, sdf_ent = permanent_entropy(rho, m), sdf_entropy(m)
    return {"rho": float(rho), "y": long_run_yield(rho), "L": entropy_l, "sdf_entropy": sdf_ent,
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
    m_perm = m * phi_t1 / (rho * phi_t)
    m_trans = rho * phi_t / phi_t1
    scalars = long_run_scalars(rho, m)
    return DecompSeries(
        m=m,
        m_perm=m_perm,
        m_trans=m_trans,
        rho=scalars["rho"],
        yield_y=scalars["y"],
        entropy_L=scalars["L"],
        sdf_entropy=scalars["sdf_entropy"],
        horizon_dependence=scalars["horizon_dependence"],
    )


def change_of_measure(phi_vals: np.ndarray, phi_star_vals: np.ndarray) -> np.ndarray:
    """Pointwise density ratio phi * phi* of the long-run pricing measure.

    Under the scale normalization (unit empirical inner product of the two
    eigenfunctions) the sample mean of the returned values is one.
    """
    return np.asarray(phi_vals, dtype=float) * np.asarray(phi_star_vals, dtype=float)


def pt_association(series: DecompSeries) -> dict:
    """Association statistics between the log permanent and log transitory increments.

    Returns sample covariance and Pearson correlation of the logs plus the
    rank-based Kendall tau and Spearman rho. Correlations are None when
    either series is constant.
    """
    lp = np.log(series.m_perm)
    lt = np.log(series.m_trans)
    if lp.size < 3:
        raise ValueError("need at least 3 periods for association statistics")
    cov = float(np.cov(lp, lt, ddof=1)[0, 1])
    degenerate = np.std(lp) == 0 or np.std(lt) == 0
    if degenerate:
        return {"cov_log": cov, "corr_log": None, "kendall_tau": None, "spearman_rho": None}
    corr = float(np.corrcoef(lp, lt)[0, 1])
    tau = float(stats.kendalltau(lp, lt).statistic)
    rho_s = float(stats.spearmanr(lp, lt).statistic)
    return {"cov_log": cov, "corr_log": corr, "kendall_tau": tau, "spearman_rho": rho_s}


def scalars_dict(series: DecompSeries, association: Optional[dict] = None) -> dict:
    """Scalar functionals (and optional association stats) as one mapping."""
    out = {
        "rho": series.rho,
        "yield_y": series.yield_y,
        "entropy_L": series.entropy_L,
        "sdf_entropy": series.sdf_entropy,
        "horizon_dependence": series.horizon_dependence,
    }
    if association is not None:
        out["association"] = association
    return out


def series_to_csv(series: DecompSeries, path) -> None:
    """Write the tidy per-period series: columns (t, m, m_perm, m_trans)."""
    write_csv(
        path,
        ["t", "m", "m_perm", "m_trans"],
        zip(range(series.m.size), series.m, series.m_perm, series.m_trans),
    )


def scalars_to_json(series: DecompSeries, path, association: Optional[dict] = None, extra: Optional[dict] = None) -> None:
    """Write the scalar sidecar JSON next to the series CSV."""
    payload = scalars_dict(series, association)
    if extra:
        payload.update(extra)
    write_json(path, payload)
