"""Preference-parameter estimation from instrumented Euler equations.

For each candidate (beta, gamma) the continuation value is profiled out
by solving the nonlinear eigenproblem, the implied SDF increments are
plugged into the pricing errors m_t R_{t+1} - 1, and the errors are
instrumented with basis functions of the current state. The criterion is
the trace of the Gram-pseudo-inverse-weighted quadratic form in the
instrumented moments; a coarse grid stage seeds a Nelder-Mead polish so
that inner-solver failures surface as infeasible grid points instead of
silent divergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import minimize

from .sievemat import Design
from .valuefn import FixedPointSolution, recursive_sdf_series, solve_value_fixed_point

DEFAULT_BOUNDS = ((0.9, 0.9999), (1.0, 60.0))
#: (beta, gamma) points of the coarse grid stage
GRID_SHAPE = (11, 13)
#: Nelder-Mead tolerances on the point and on the criterion, and its iteration cap
XATOL = 1e-5
FATOL = 1e-12
MAX_ITER = 500


@dataclass
class CalibrationResult:
    beta_hat: float
    gamma_hat: float
    criterion_value: float
    inner_solution: Optional[FixedPointSolution]
    optimizer_trace: list[tuple[float, float, float]] = field(default_factory=list)
    converged: bool = False


def criterion(design: Design, instruments: Design, beta: float, gamma: float) -> float:
    """Instrumented Euler-equation criterion at fixed preferences.

    ``design`` is the panel's solve design and ``instruments`` the design
    of the instrument basis on the same panel; the criterion weights the
    instrumented moments by the pseudo-inverse of the instruments' Gram
    matrix. Returns +inf when the inner value-recursion solve fails, so
    grid and simplex stages treat such points as infeasible.
    """
    panel = design.panel
    if panel.returns is None:
        raise ValueError("panel has no returns; the criterion needs asset returns")
    if instruments.basis.dimension_k > design.basis.dimension_k:
        raise ValueError("instrument basis dimension exceeds the solve basis dimension")
    if not (0 < beta < 1 and gamma >= 1):
        return math.inf
    try:
        fp = solve_value_fixed_point(design, beta, gamma)
        if not fp.converged:
            return math.inf
        m = recursive_sdf_series(design, fp)
    except (ValueError, RuntimeError, np.linalg.LinAlgError):
        return math.inf
    resid = m[:, None] * panel.returns - 1.0
    A = instruments.b0.T @ resid / panel.n
    return float(np.trace(A.T @ instruments.gram_pinv @ A))


def estimate_preferences(
    design: Design,
    instruments: Design,
    bounds: tuple[tuple[float, float], tuple[float, float]] = DEFAULT_BOUNDS,
) -> CalibrationResult:
    """Minimize the criterion over (beta, gamma) in a box.

    A coarse GRID_SHAPE grid locates a feasible starting point;
    Nelder-Mead then polishes within the bounds. Raises when every grid
    point is infeasible (inner solver failed everywhere).
    """
    (b_lo, b_hi), (g_lo, g_hi) = bounds
    if not (b_lo <= b_hi and g_lo <= g_hi):
        raise ValueError("bounds must be ordered")
    trace: list[tuple[float, float, float]] = []

    def objective(point) -> float:
        b, g = float(point[0]), float(point[1])
        val = criterion(design, instruments, b, g)
        trace.append((b, g, val))
        return val

    nb, ng = GRID_SHAPE
    betas = np.linspace(b_lo, b_hi, nb)
    gammas = np.linspace(g_lo, g_hi, ng)
    best_val = math.inf
    best_point = None
    for b in betas:
        for g in gammas:
            val = objective((b, g))
            if val < best_val:
                best_val, best_point = val, (b, g)
    if best_point is None or not math.isfinite(best_val):
        raise RuntimeError("all grid points infeasible; inner solver failed everywhere")

    if b_lo == b_hi and g_lo == g_hi:
        beta_hat, gamma_hat, crit_val = b_lo, g_lo, best_val
        success = True
    else:
        res = minimize(
            objective,
            x0=np.array(best_point),
            method="Nelder-Mead",
            bounds=[(b_lo, b_hi), (g_lo, g_hi)],
            options={
                "xatol": XATOL,
                "fatol": FATOL,
                "maxiter": MAX_ITER,
            },
        )
        beta_hat, gamma_hat = float(res.x[0]), float(res.x[1])
        crit_val = float(res.fun)
        success = bool(res.success) and math.isfinite(crit_val)

    inner = None
    if math.isfinite(crit_val):
        fp = solve_value_fixed_point(design, beta_hat, gamma_hat)
        inner = fp if fp.converged else None
    return CalibrationResult(
        beta_hat=beta_hat,
        gamma_hat=gamma_hat,
        criterion_value=crit_val,
        inner_solution=inner,
        optimizer_trace=trace,
        converged=success,
    )
