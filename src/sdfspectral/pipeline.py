"""One fit path over a panel's sieve design, shared by the CLI, the bootstrap and the Monte Carlo harness."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .decomp import DecompSeries, pt_association, pt_series
from .inference import DISCARD_REASON, InfluenceSeries, influence_rho
from .pfeig import FALLBACK_REASONS, EigenSolution, _solve_stack, normalize, solve_generalized
from .preferences import PowerUtility, RecursiveUtility, power_utility_sdf_series
from .sievemat import Design, StatePanel, estimate_pricing
from .valuefn import (
    FixedPointSolution,
    continuation_sdf,
    recursive_sdf_series,
    solve_value_fixed_point,
)


class FitFailedError(RuntimeError):
    """The estimation pipeline could not produce a usable fit.

    ``fixed_point`` is the converged value recursion of a fit that failed
    at a later stage, so that callers can keep its statistics.
    """

    def __init__(self, message: str, fixed_point: Optional[FixedPointSolution] = None):
        super().__init__(message)
        self.fixed_point = fixed_point


@dataclass
class Fit:
    """The eigen fit of one panel design: SDF increments, eigenpair, its values on the sample.

    ``sol`` is normalized, or the constant fallback, for which the
    eigenfunction values are ones and there is no influence series.
    """

    m: np.ndarray
    sol: EigenSolution
    phi_t: np.ndarray
    phi_t1: np.ndarray
    phi_star_t: np.ndarray
    fixed_point: Optional[FixedPointSolution] = None
    influence: Optional[InfluenceSeries] = None


@dataclass
class DecompositionResult:
    """A fit with its permanent/transitory series and their association."""

    fit: Fit
    series: DecompSeries
    association: dict

    def scalar_record(self) -> dict:
        """Flat record of the headline scalars."""
        out = {
            "rho": self.series.rho,
            "y": self.series.yield_y,
            "L": self.series.entropy_L,
            "sdf_entropy": self.series.sdf_entropy,
            "horizon_dependence": self.series.horizon_dependence,
        }
        if self.fit.fixed_point is not None:
            out["lambda"] = self.fit.fixed_point.lam
        return out


def realized_sdf(
    design: Design,
    preferences: Optional[Union[PowerUtility, RecursiveUtility]],
    fixed_point: Optional[FixedPointSolution] = None,
) -> np.ndarray:
    """SDF increments of the panel: its observed column, the power-utility
    formula, or, under recursive preferences, those implied by the solved
    continuation value ``fixed_point``."""
    panel = design.panel
    if preferences is None:
        if panel.sdf_increments is None:
            raise ValueError("panel has no SDF column and no preferences were given")
        return panel.sdf_increments
    if isinstance(preferences, PowerUtility):
        return power_utility_sdf_series(panel, preferences.beta, preferences.gamma)
    return recursive_sdf_series(design, fixed_point)


def fit_panel(
    design: Design,
    preferences: Optional[Union[PowerUtility, RecursiveUtility]] = None,
) -> Fit:
    """Estimate the eigenpair of one panel design, stage by stage.

    Under recursive preferences the value recursion is solved first; an
    unconverged one raises FitFailedError. Then the SDF increments, the
    generalized eigenproblem of the pricing and Gram matrices, the
    normalization, the eigenfunctions on the sample and the influence
    series follow. A failure in these later stages raises FitFailedError
    carrying the converged value recursion. A fallback eigen-solution is
    returned, not raised.
    """
    fp = None
    if isinstance(preferences, RecursiveUtility):
        fp = solve_value_fixed_point(design, preferences.beta, preferences.gamma)
        if not fp.converged:
            raise FitFailedError("value-recursion iteration did not converge")
    try:
        m = realized_sdf(design, preferences, fp)
        design.panel.with_sdf(m)  # rejects non-finite or non-positive increments
        sol = solve_generalized(
            estimate_pricing(design, m), design.gram, const_coeffs=design.basis.const_coeffs
        )
        if sol.is_fallback:
            ones = np.ones(design.n)
            return Fit(m, sol, ones, ones, ones, fp)
        sol = normalize(sol, design.gram)
    except (ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
        raise FitFailedError(str(exc), fp) from exc
    return Fit(
        m,
        sol,
        phi_t=design.b0 @ sol.right_coeffs,
        phi_t1=design.b1 @ sol.right_coeffs,
        phi_star_t=design.b0 @ sol.left_coeffs,
        fixed_point=fp,
        influence=influence_rho(sol, design, m),
    )


def decompose_panel(
    design: Design,
    preferences: Optional[Union[PowerUtility, RecursiveUtility]] = None,
) -> DecompositionResult:
    """Fit one panel design and split its SDF into permanent and transitory increments.

    A fallback eigen-solution propagates into the result (constant
    eigenfunctions, rho = 1).
    """
    fit = fit_panel(design, preferences)
    series = pt_series(fit.sol.rho, fit.phi_t, fit.phi_t1, fit.m)
    return DecompositionResult(fit=fit, series=series, association=pt_association(series))


#: why a bootstrap replicate is discarded: a fallback eigenpair (one entry
#: per acceptance rule of the eigensolve), or, under recursive preferences,
#: a value recursion that did not converge or a continuation value that is
#: not positive on the drawn pairs
DISCARD_REASONS = FALLBACK_REASONS + ("unconverged_value_recursion", "nonpositive_continuation")


def _rowwise_outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, k*k) array whose row t is the flattened outer product a_t b_t'."""
    return (a[:, :, None] * b[:, None, :]).reshape(a.shape[0], -1)


def bootstrap_statistic(
    design: Design,
    preferences: Optional[Union[PowerUtility, RecursiveUtility]],
):
    """Statistic for :func:`bootstrap_ci` on ``design.panel``, mapping count rows to the scalar functionals.

    The basis (sieve dimension, standardization, knots) is held fixed
    across replicates, so replicate r's Gram and pricing matrices are
    count-weighted sums over the panel's transition pairs,
    G_r = sum_t w_rt b(X_t) b(X_t)'/n and
    M_r = sum_t w_rt m_rt b(X_t) b(X_{t+1})'/n, with w_r the r-th row of
    the integer (replicates x n) ``counts``. They are moments of the
    design's rows, and each block of replicates is solved as one stack of
    pencils.

    Returns arrays of the eigenvalue, yield, the two entropies, horizon
    dependence, and the value-recursion eigenvalue when preferences are
    recursive. None of them needs the eigenfunction to stay positive on
    the resample. A replicate is discarded (NaN, with its DISCARD_REASONS
    entry) for a fallback eigenpair, or for a value recursion, solved on
    the replicate's rows of the design, that did not converge or whose
    continuation value is not positive on the drawn pairs.
    """
    recursive = isinstance(preferences, RecursiveUtility)
    b0, b1 = design.b0, design.b1
    n, k = b0.shape
    p00 = _rowwise_outer(b0, b0)
    p01 = _rowwise_outer(b0, b1)
    m = None if recursive else realized_sdf(design, preferences)

    def stat(panel: StatePanel, counts: np.ndarray) -> dict:
        if panel is not design.panel:
            raise ValueError("the statistic is bound to the panel of its design")
        w = np.asarray(counts, dtype=float)
        n_rep = w.shape[0]
        reason = np.full(n_rep, "", dtype=object)
        m_rep = m
        if recursive:
            # m is needed only at drawn pairs; elsewhere any positive value will do
            m_rep = np.ones((n_rep, n))
            lam = np.full(n_rep, np.nan)
            beta, gamma = preferences.beta, preferences.gamma
            for r in range(n_rep):
                fp = solve_value_fixed_point(
                    design.resample(np.repeat(np.arange(n), counts[r])), beta, gamma
                )
                if not fp.converged:
                    reason[r] = "unconverged_value_recursion"
                    continue
                drawn = counts[r] > 0
                chi0 = b0[drawn] @ fp.chi_coeffs
                chi1 = b1[drawn] @ fp.chi_coeffs
                if np.any(chi0 <= 0) or np.any(chi1 <= 0):
                    reason[r] = "nonpositive_continuation"
                    continue
                m_rep[r, drawn] = continuation_sdf(
                    panel.growth[drawn], beta, gamma, fp.lam, chi0, chi1
                )
                lam[r] = fp.lam
        G = (w @ p00 / n).reshape(n_rep, k, k)
        M = ((w * m_rep) @ p01 / n).reshape(n_rep, k, k)
        eig = _solve_stack(M, G)
        reason = np.where(reason == "", eig.reason, reason)
        rho = np.where(reason == "", eig.rho, np.nan)
        mean_log_m = (w * np.log(m_rep)).sum(axis=1) / n
        sdf_ent = np.log((w * m_rep).sum(axis=1) / n) - mean_log_m
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
