"""End-to-end decomposition pipeline shared by the CLI and the bootstrap."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .basis import SieveBasis
from .decomp import DecompSeries, pt_association, pt_series
from .inference import DISCARD_REASON, InfluenceSeries, influence_rho
from .pfeig import FALLBACK_REASONS, EigenSolution, _solve_stack, normalize, solve_generalized
from .preferences import PowerUtility, RecursiveUtility, power_utility_sdf_series
from .sievemat import StatePanel, estimate_gram, estimate_pricing
from .valuefn import (
    FixedPointSolution,
    continuation_sdf,
    recursive_sdf_series,
    solve_value_fixed_point,
)


class FitFailedError(RuntimeError):
    """The estimation pipeline could not produce a usable fit."""


@dataclass
class DecompositionResult:
    """Everything the decomposition pipeline produces for one panel."""

    basis: SieveBasis
    sol: EigenSolution
    series: DecompSeries
    association: dict
    m: np.ndarray
    fixed_point: Optional[FixedPointSolution] = None
    influence: Optional[InfluenceSeries] = None

    def scalar_record(self) -> dict:
        """Flat record of the headline scalars (bootstrap statistic payload)."""
        out = {
            "rho": self.series.rho,
            "y": self.series.yield_y,
            "L": self.series.entropy_L,
            "sdf_entropy": self.series.sdf_entropy,
            "horizon_dependence": self.series.horizon_dependence,
        }
        if self.fixed_point is not None:
            out["lambda"] = self.fixed_point.lam
        return out


def realized_sdf(
    panel: StatePanel,
    preferences: Optional[Union[PowerUtility, RecursiveUtility]],
    basis: SieveBasis,
) -> tuple[np.ndarray, Optional[FixedPointSolution]]:
    """SDF increments for the panel: observed column, or implied by preferences."""
    if preferences is None:
        if panel.sdf_increments is None:
            raise ValueError("panel has no SDF column and no preferences were given")
        return panel.sdf_increments, None
    if isinstance(preferences, PowerUtility):
        return power_utility_sdf_series(panel, preferences.beta, preferences.gamma), None
    fp = solve_value_fixed_point(basis, panel, preferences.beta, preferences.gamma)
    if not fp.converged:
        raise FitFailedError("value-recursion iteration did not converge")
    return recursive_sdf_series(panel, preferences.beta, preferences.gamma, fp, basis), fp


def decompose_panel(
    panel: StatePanel,
    basis: SieveBasis,
    preferences: Optional[Union[PowerUtility, RecursiveUtility]] = None,
    allow_fallback: bool = True,
) -> DecompositionResult:
    """Run the full decomposition on one panel with a fitted basis.

    Solves for the SDF increments (observable column, power formula, or
    recursive plug-in), estimates the eigenpair, and constructs the
    permanent/transitory series and scalar functionals. A fallback
    eigen-solution propagates into the result when ``allow_fallback``,
    else raises FitFailedError.
    """
    m, fp = realized_sdf(panel, preferences, basis)
    panel = panel.with_sdf(m)
    G = estimate_gram(basis, panel)
    M = estimate_pricing(basis, panel)
    sol = solve_generalized(M, G, const_coeffs=basis.const_coeffs)
    infl = None
    if sol.is_fallback:
        if not allow_fallback:
            raise FitFailedError("no real simple positive eigenvalue; fallback solution")
        n = panel.n
        phi_t = np.ones(n)
        phi_t1 = np.ones(n)
        phi_star_t = np.ones(n)
    else:
        sol = normalize(sol, G)
        b0 = basis.evaluate_many(panel.x0)
        b1 = basis.evaluate_many(panel.x1)
        phi_t = b0 @ sol.right_coeffs
        phi_t1 = b1 @ sol.right_coeffs
        phi_star_t = b0 @ sol.left_coeffs
        infl = influence_rho(
            sol, panel, m, phi_t=phi_t, phi_star_t=phi_star_t, phi_t1=phi_t1
        )
    series = pt_series(sol.rho, phi_t, phi_t1, m)
    association = pt_association(series)
    return DecompositionResult(
        basis=basis,
        sol=sol,
        series=series,
        association=association,
        m=m,
        fixed_point=fp,
        influence=infl,
    )


#: why a bootstrap replicate is discarded: a fallback eigenpair (one entry
#: per acceptance rule of the eigensolve), or, under recursive preferences,
#: a value recursion that did not converge or a continuation value that is
#: not positive on the drawn pairs
DISCARD_REASONS = FALLBACK_REASONS + ("unconverged_value_recursion", "nonpositive_continuation")


def _rowwise_outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, k*k) array whose row t is the flattened outer product a_t b_t'."""
    return (a[:, :, None] * b[:, None, :]).reshape(a.shape[0], -1)


def bootstrap_statistic(
    basis: SieveBasis,
    preferences: Optional[Union[PowerUtility, RecursiveUtility]],
):
    """Statistic for :func:`bootstrap_ci` mapping count rows to the scalar functionals.

    The basis (sieve dimension, standardization, knots) is held fixed
    across replicates, so replicate r's Gram and pricing matrices are
    count-weighted sums over the panel's transition pairs,
    G_r = sum_t w_rt b(X_t) b(X_t)'/n and
    M_r = sum_t w_rt m_rt b(X_t) b(X_{t+1})'/n, with w_r the r-th row of
    the integer (replicates x n) ``counts``. The design b(X_t), b(X_{t+1})
    is evaluated once per panel, and each block of replicates is solved as
    one stack of pencils.

    Returns arrays of the eigenvalue, yield, the two entropies, horizon
    dependence, and the value-recursion eigenvalue when preferences are
    recursive. None of them needs the eigenfunction to stay positive on
    the resample. A replicate is discarded (NaN, with its DISCARD_REASONS
    entry) for a fallback eigenpair, or for a value recursion, solved on
    the replicate's transition pairs, that did not converge or whose
    continuation value is not positive on the drawn pairs.
    """
    recursive = isinstance(preferences, RecursiveUtility)
    design: dict = {}

    def stat(panel: StatePanel, counts: np.ndarray) -> dict:
        if design.get("panel") is not panel:
            b0 = basis.evaluate_many(panel.x0)
            b1 = basis.evaluate_many(panel.x1)
            m = None if recursive else realized_sdf(panel, preferences, basis)[0]
            design.update(panel=panel, b0=b0, b1=b1, m=m,
                          p00=_rowwise_outer(b0, b0), p01=_rowwise_outer(b0, b1))
        b0, b1 = design["b0"], design["b1"]
        w = np.asarray(counts, dtype=float)
        n_rep, n = w.shape
        k = b0.shape[1]
        reason = np.full(n_rep, "", dtype=object)
        if recursive:
            # m is needed only at drawn pairs; elsewhere any positive value will do
            m = np.ones((n_rep, n))
            lam = np.full(n_rep, np.nan)
            beta, gamma = preferences.beta, preferences.gamma
            for r in range(n_rep):
                replicate = panel.resample(np.repeat(np.arange(n), counts[r]))
                fp = solve_value_fixed_point(basis, replicate, beta, gamma)
                if not fp.converged:
                    reason[r] = "unconverged_value_recursion"
                    continue
                drawn = counts[r] > 0
                chi0 = b0[drawn] @ fp.chi_coeffs
                chi1 = b1[drawn] @ fp.chi_coeffs
                if np.any(chi0 <= 0) or np.any(chi1 <= 0):
                    reason[r] = "nonpositive_continuation"
                    continue
                m[r, drawn] = continuation_sdf(
                    panel.growth[drawn], beta, gamma, fp.lam, chi0, chi1
                )
                lam[r] = fp.lam
        else:
            m = design["m"]
        G = (w @ design["p00"] / n).reshape(n_rep, k, k)
        M = ((w * m) @ design["p01"] / n).reshape(n_rep, k, k)
        eig = _solve_stack(M, G)
        reason = np.where(reason == "", eig.reason, reason)
        rho = np.where(reason == "", eig.rho, np.nan)
        mean_log_m = (w * np.log(m)).sum(axis=1) / n
        sdf_ent = np.log((w * m).sum(axis=1) / n) - mean_log_m
        entropy_l = np.log(rho) - mean_log_m
        out = {
            "rho": rho,
            "y": -np.log(rho),
            "L": entropy_l,
            "sdf_entropy": sdf_ent,
            "horizon_dependence": entropy_l - sdf_ent,
            DISCARD_REASON: reason,
        }
        if recursive:
            out["lambda"] = lam
        return out

    return stat
