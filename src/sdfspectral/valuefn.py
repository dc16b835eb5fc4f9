"""Continuation values under unit-EIS recursive preferences.

The scaled value function solves a nonlinear fixed point of the form
h(x) = E[G'^{1-gamma} h(X')^beta | X = x]. Normalizing the unknown to
unit empirical norm turns this into a nonlinear eigenproblem solved by a
normalized power-type iteration; homogeneity of degree beta makes the
iteration insensitive to the scale of the starting vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .pfeig import _ensure_spd
from .sievemat import Design


@dataclass(frozen=True)
class FixedPointSolution:
    """Converged nonlinear eigenpair for the value recursion.

    ``chi_coeffs`` are the coefficients of the unit-empirical-norm
    eigenfunction; ``h_coeffs = lam**(1/(1-beta)) * chi_coeffs`` are those
    of the unnormalized fixed point.
    """

    lam: float
    chi_coeffs: np.ndarray
    h_coeffs: np.ndarray
    beta: float
    gamma: float
    iterations: int
    converged: bool
    final_step: float


def value_map(design: Design, beta: float, gamma: float) -> Callable[[np.ndarray], np.ndarray]:
    """Sample value-recursion map v -> (1/n) sum_t b(X_t) G_{t+1}^{1-gamma} |b(X_{t+1})'v|^beta.

    Positively homogeneous of degree beta in v. G^{1-gamma} is computed
    once per map, as exp((1-gamma) log G) so that large risk aversion does
    not overflow before the log would.
    """
    growth = design.panel.growth
    if growth is None:
        raise ValueError("panel has no growth series")
    if not 0 < beta < 1:
        raise ValueError("beta must lie in (0, 1)")
    with np.errstate(over="ignore"):
        gw = np.exp((1.0 - gamma) * np.log(growth))
    if not np.all(np.isfinite(gw)):
        t = int(np.argmax(~np.isfinite(gw)))
        raise ValueError(f"G^(1-gamma) overflows at t={t}; gamma too extreme for the data")
    b0, b1, n = design.b0, design.b1, design.n

    def t_map(v: np.ndarray) -> np.ndarray:
        return b0.T @ (gw * np.abs(b1 @ v) ** beta) / n

    return t_map


def solve_value_fixed_point(
    design: Design,
    beta: float,
    gamma: float,
    tol: float = 1e-10,
    max_iter: int = 10_000,
    z0=None,
) -> FixedPointSolution:
    """Solve the sample nonlinear eigenproblem for the continuation value.

    Iterates z_{j+1} = G^{-1} T(y_j) with y_j the G-normalized z_j, from
    the starting vector z_1 = G^{-1}(mean basis vector) unless ``z0``
    overrides it; homogeneity plus the per-step normalization make the
    result invariant to the scale of the start. On convergence the
    eigenvalue is the G-norm of the final pre-normalization iterate.
    Convergence is declared when the G-norm change in y falls below
    ``tol``; non-convergence returns the best iterate flagged
    ``converged=False`` rather than raising, so simulation harnesses can
    count and discard such fits.

    gamma = 1 is allowed as the degenerate log-utility case, for which the
    solution is the constant function with unit eigenvalue.
    """
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    t_map = value_map(design, beta, gamma)
    G = _ensure_spd(design.gram)
    cho = scipy.linalg.cho_factor(G)

    def g_norm(v: np.ndarray) -> float:
        return float(np.sqrt(v @ G @ v))

    z = scipy.linalg.cho_solve(cho, design.b0.mean(axis=0)) if z0 is None else np.asarray(z0, float)
    y = None
    step = np.inf
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        nz = g_norm(z)
        if nz <= 0 or not np.isfinite(nz):
            raise RuntimeError("degenerate iterate: vanishing G-norm")
        y_new = z / nz
        if y is not None:
            step = min(g_norm(y_new - y), g_norm(y_new + y))
            if step < tol:
                y = y_new
                converged = True
                break
        y = y_new
        z = scipy.linalg.cho_solve(cho, t_map(y))

    # lam comes from the last pre-normalization iterate.
    z = scipy.linalg.cho_solve(cho, t_map(y))
    lam = g_norm(z)
    const = design.basis.const_coeffs
    if const @ G @ y < 0:
        y = -y  # the map is sign-blind; report the positive representative
    # the unnormalized fixed-point scale lam^(1/(1-beta)) can overflow for
    # beta near one; numpy semantics (inf) keep the eigenpair usable
    with np.errstate(over="ignore"):
        h = np.power(np.float64(lam), 1.0 / (1.0 - beta)) * y
    return FixedPointSolution(
        lam=lam,
        chi_coeffs=y,
        h_coeffs=h,
        beta=beta,
        gamma=gamma,
        iterations=iterations,
        converged=converged,
        final_step=float(step),
    )


def recursive_sdf_series(design: Design, solution: FixedPointSolution) -> np.ndarray:
    """SDF increment series implied by a solved continuation value.

    m_t = (beta/lam) G_{t+1}^{-gamma} chi(X_{t+1})^beta / chi(X_t),
    aligned with the panel's transition pairs. Requires the eigenfunction
    to be strictly positive at every sample point.
    """
    growth = design.panel.growth
    if growth is None:
        raise ValueError("panel has no growth series")
    chi0 = design.b0 @ solution.chi_coeffs
    chi1 = design.b1 @ solution.chi_coeffs
    if np.any(chi0 <= 0) or np.any(chi1 <= 0):
        raise ValueError(
            "eigenfunction not positive on sample; "
            "the value-recursion solution is unreliable here"
        )
    return continuation_sdf(growth, solution.beta, solution.gamma, solution.lam, chi0, chi1)


def continuation_sdf(
    growth: np.ndarray,
    beta: float,
    gamma: float,
    lam: float,
    chi0: np.ndarray,
    chi1: np.ndarray,
) -> np.ndarray:
    """m_t = (beta/lam) G_{t+1}^{-gamma} chi(X_{t+1})^beta / chi(X_t) from positive chi values."""
    gpow = np.exp(-gamma * np.log(growth))
    return (beta / lam) * gpow * chi1**beta / chi0
