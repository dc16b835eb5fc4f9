"""One fit path over a panel's sieve design, shared by the CLI, the bootstrap and the Monte Carlo harness."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from .decomp import DecompSeries, pt_association, pt_series
from .inference import DISCARD_REASON, InfluenceSeries, influence_rho, influence_stack
from .pfeig import (
    FALLBACK_REASONS,
    EigenSolution,
    _matvec,
    _normalize_stack,
    _solve_stack,
    normalize,
    solve_generalized,
)
from .preferences import (
    PowerUtility,
    RecursiveUtility,
    power_utility_sdf,
    power_utility_sdf_series,
)
from .sievemat import Design, DesignStack, estimate_pricing, gram_stack, rowwise_outer
from .valuefn import (
    FixedPointSolution,
    FixedPointStack,
    recursive_sdf_series,
    recursive_sdf_stack,
    solve_value_fixed_point,
    solve_value_stack,
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
    phi_t = design.b0 @ sol.right_coeffs
    phi_t1 = design.b1 @ sol.right_coeffs
    phi_star_t = design.b0 @ sol.left_coeffs
    return Fit(
        m,
        sol,
        phi_t=phi_t,
        phi_t1=phi_t1,
        phi_star_t=phi_star_t,
        fixed_point=fp,
        influence=influence_rho(sol, m, phi_t, phi_t1, phi_star_t),
    )


class FitStack(NamedTuple):
    """Per-replicate results of :func:`fit_stack` on R panel designs.

    ``failed`` marks the replicates without a usable eigen fit; their
    ``rho``, ``right``, ``left`` and ``se_rho`` are NaN. ``fixed_point``
    holds the value recursions under recursive preferences (else None);
    those of its columns whose ``reason`` is not empty did not converge,
    and such a replicate has failed as well.
    """

    failed: np.ndarray  # (R,) bool
    m: np.ndarray  # (R, n) SDF increments, ones where they could not be formed
    rho: np.ndarray  # (R,)
    right: np.ndarray  # (R, k) normalized eigenfunction coefficients
    left: np.ndarray  # (R, k) normalized adjoint coefficients
    se_rho: np.ndarray  # (R,) plug-in standard error of rho
    fixed_point: Optional[FixedPointStack]


def fit_stack(
    design: DesignStack, preferences: Union[PowerUtility, RecursiveUtility]
) -> FitStack:
    """Estimate the eigenpairs of R panel designs as one stack, stage by stage.

    The stages of :func:`fit_panel`, each run once over the stack: the
    value recursions (one :func:`solve_value_stack` call) under recursive
    preferences, the SDF increments, the eigensolve of the pricing and
    Gram stacks, the normalization, and the plug-in standard error of rho.
    Each replicate is censored on its own, by the rule that fails
    :func:`fit_panel`: an unconverged or degenerate value recursion, a
    continuation value that is not positive on its sample, SDF increments
    that are not finite and positive, a fallback eigenpair or a defective
    pair. Every Gram matrix of the stack must factor
    (:func:`pfeig._spd_mask`); otherwise LinAlgError is raised.
    """
    n = design.n
    fp = None
    if isinstance(preferences, RecursiveUtility):
        fp = solve_value_stack(design, preferences.beta, preferences.gamma)
        m, usable = recursive_sdf_stack(design, fp.beta, fp.gamma, fp.lam, fp.chi_coeffs)
        m, ok = m.T, usable & (fp.reason == "")
    else:
        m = power_utility_sdf(design.growth, preferences.beta, preferences.gamma)
        ok = np.ones(len(m), dtype=bool)
    ok &= np.all(np.isfinite(m) & (m > 0), axis=1)
    m = np.where(ok[:, None], m, 1.0)
    G = design.gram
    eig = _solve_stack(estimate_pricing(design, m), G)
    right, left, bad_norm, orthogonal = _normalize_stack(
        eig.right, eig.left, G, design.const_coeffs
    )
    failed = ~ok | (eig.reason != "") | bad_norm | orthogonal
    rho = np.where(failed, np.nan, eig.rho)
    right, left = (np.where(failed[:, None], np.nan, c) for c in (right, left))
    phi_t, phi_t1 = _matvec(design.b0, right), _matvec(design.b1, right)
    _, v_rho = influence_stack(rho, m, phi_t, phi_t1, _matvec(design.b0, left))
    return FitStack(failed, m, rho, right, left, np.sqrt(v_rho / n), fp)


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
    pencils. Under recursive preferences the block's value recursions are
    solved first, as one count-weighted :func:`solve_value_stack` call.

    Returns arrays of the eigenvalue, yield, the two entropies, horizon
    dependence, and the value-recursion eigenvalue when preferences are
    recursive. None of them needs the eigenfunction to stay positive on
    the resample. A replicate is discarded (NaN, with its DISCARD_REASONS
    entry) for a fallback eigenpair, or for a value recursion that did not
    converge or whose continuation value is not positive on the drawn
    pairs.
    """
    recursive = isinstance(preferences, RecursiveUtility)
    n, k = design.b0.shape
    p01 = rowwise_outer(design.b0, design.b1)
    m = None if recursive else realized_sdf(design, preferences)

    def stat(counts: np.ndarray) -> dict:
        w = np.asarray(counts, dtype=float)
        n_rep = w.shape[0]
        reason = np.full(n_rep, "", dtype=object)
        m_rep = m
        if recursive:
            fp = solve_value_stack(design, preferences.beta, preferences.gamma, counts=counts)
            reason[:] = fp.reason
            # positivity counts on the drawn pairs of the solved replicates
            m_pairs, usable = recursive_sdf_stack(
                design, fp.beta, fp.gamma, fp.lam, fp.chi_coeffs,
                drawn=(counts > 0).T & (fp.reason == ""),
            )
            m_rep = m_pairs.T
            reason[~usable] = "nonpositive_continuation"
            lam = np.where(reason == "", fp.lam, np.nan)
        G = gram_stack(design, w)
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
