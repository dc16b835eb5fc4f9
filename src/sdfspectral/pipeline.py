"""One fit path over a panel's sieve design, shared by the CLI, the bootstrap and the Monte Carlo harness.

:func:`fit_stack` runs each stage of the estimator once over R replicates
in one of three row layouts: a :class:`Design` alone (a stack of one),
the :class:`CountRows` of R bootstrap replicates of a Design, or a
:class:`DesignStack` of R Monte Carlo designs. A replicate's ``reason`` is
"" where its fit is kept and otherwise the first stage that failed it, in
stage order: GRAM_NOT_SPD, a VALUE_FAILURES entry, "nonpositive_continuation",
"nonpositive_sdf", PRICING_NOT_FINITE, a FALLBACK_REASONS entry or "defective_pair".
Under recursive preferences the value recursion names PRICING_NOT_FINITE
before its VALUE_FAILURES, since an overflowing b(X_{t+1}) is its input too.
:func:`fit_panel` is row 0 of a stack of one, and
:func:`bootstrap_statistic` fits stacks of count rows.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

import numpy as np

from .decomp import long_run_stack
from .inference import DISCARD_REASON, influence_stack
from .pfeig import (
    FALLBACK_REASONS,
    GRAM_NOT_SPD,
    _matvec,
    _normalize_stack,
    _PencilStack,
    _row,
    _solve_stack,
)
from .preferences import PowerUtility, RecursiveUtility, power_utility_sdf
from .sievemat import CountRows, Design, DesignStack, estimate_pricing
from .valuefn import FixedPointStack, recursive_sdf_stack, solve_value_stack


class SampleValues(NamedTuple):
    """The fitted eigenfunctions on the sample and the influence series of rho, per replicate."""

    phi_t: np.ndarray  # (R, n) phi(X_t)
    phi_t1: np.ndarray  # (R, n) phi(X_{t+1})
    phi_star_t: np.ndarray  # (R, n) phi*(X_t)
    psi_rho: np.ndarray  # (R, n) influence series of rho
    v_rho: np.ndarray  # (R,) its plug-in variance mean(psi^2)
    se_rho: np.ndarray  # (R,) plug-in standard error of rho


class FitStack(NamedTuple):
    """Per-replicate results of :func:`fit_stack` on R replicates.

    ``reason`` is the module's failure reason of each replicate. ``eig``
    holds the eigensolve's per-pencil results with the normalized
    coefficients; its ``rho``, ``right`` and ``left`` are NaN where
    ``reason`` is not empty, and its own ``reason`` is that of the
    eigensolve alone. ``fixed_point`` holds the value recursions under
    recursive preferences (else None), and ``sample`` the fits' values on
    their own rows (None for count rows, which have no sample of their
    own), NaN for the replicates that failed.
    """

    reason: np.ndarray  # (R,) str
    m: np.ndarray  # (R, n) SDF increments, ones where they could not be formed
    eig: _PencilStack
    fixed_point: Optional[FixedPointStack]
    sample: Optional[SampleValues]


def fit_stack(
    design: Union[Design, DesignStack, CountRows],
    preferences: Optional[Union[PowerUtility, RecursiveUtility]] = None,
) -> FitStack:
    """Estimate the eigenpairs of R replicates as one stack, stage by stage.

    The replicates' rows are those that :func:`solve_value_stack` takes:
    a :class:`Design` alone is the panel's own fit; of :class:`CountRows`,
    replicate r weights the design's transition pair t by counts[r, t] and
    needs a positive continuation value on its drawn pairs only; a
    :class:`DesignStack` gives its R designs, each with its own rows and
    growth.

    The Gram stack is factored once, and its factor serves the value
    recursions and the eigensolve. The stages, each run once over the
    stack: the Gram factor, the value recursions under
    recursive preferences, the SDF increments (the panel's observed column
    when ``preferences`` is None, the power-utility formula, or the
    continuation SDF of the solved value recursions), their check, the
    eigensolve of the Gram and pricing stacks, the normalization, and the
    eigenfunctions' values on the sample with the influence series. A
    replicate that fails a stage keeps its first ``reason`` and is not
    judged by the later stages; no other replicate is affected. Only
    panel-level faults raise: a missing SDF column or growth series.
    """
    G = design.gram.reshape((-1,) + design.gram.shape[-2:])
    reason = np.where(design.factor.ok, "", GRAM_NOT_SPD).astype(object)
    fp = None
    if isinstance(preferences, RecursiveUtility):
        fp = solve_value_stack(design, preferences.beta, preferences.gamma)
        m, reason = recursive_sdf_stack(design, fp)
        m = m.T
    elif isinstance(preferences, PowerUtility):
        m = power_utility_sdf(design.growth, preferences.beta, preferences.gamma)
    else:
        m = design.panel.sdf_increments
        if m is None:
            raise ValueError("panel has no SDF column and no preferences were given")
    positive = np.all(np.isfinite(m) & (m > 0), axis=-1)
    reason[(reason == "") & ~positive] = "nonpositive_sdf"
    m = np.where((reason == "")[:, None], m, 1.0)

    M = estimate_pricing(design, m)
    eig = _solve_stack(M, design.factor)
    right, left, bad_norm, orthogonal = _normalize_stack(
        eig.right, eig.left, G, design.const_coeffs
    )
    reason = np.where(reason == "", eig.reason, reason)
    reason[(reason == "") & (bad_norm | orthogonal)] = "defective_pair"
    kept = reason == ""
    rho = np.where(kept, eig.rho, np.nan)
    right, left = (np.where(kept[:, None], c, np.nan) for c in (right, left))
    sample = None
    if not isinstance(design, CountRows):  # count rows have no sample values of their own
        phi_t, phi_t1 = _matvec(design.b0, right), _matvec(design.b1, right)
        phi_star_t = _matvec(design.b0, left)
        psi, v_rho = influence_stack(rho, m, phi_t, phi_t1, phi_star_t)
        sample = SampleValues(phi_t, phi_t1, phi_star_t, psi, v_rho, np.sqrt(v_rho / design.n))
    return FitStack(reason, m, eig._replace(rho=rho, right=right, left=left), fp, sample)


def fit_panel(
    design: Design,
    preferences: Optional[Union[PowerUtility, RecursiveUtility]] = None,
) -> FitStack:
    """Estimate the eigenpair of one panel design: row 0 of :func:`fit_stack` on a stack of one.

    A fallback eigenpair, whose ``reason`` is its FALLBACK_REASONS entry,
    becomes the constant fallback: rho = 1, the constant function's
    coefficients as ``right`` and ``left``, and ones as its sample values;
    its influence series and se_rho stay NaN. Any other reason raises
    RuntimeError naming it (GRAM_NOT_SPD and PRICING_NOT_FINITE among
    them), and the panel-level faults of :func:`fit_stack` propagate.
    """
    fit = _row(fit_stack(design, preferences), 0)
    if fit.reason in FALLBACK_REASONS:
        c, ones = design.const_coeffs, np.ones(design.n)
        return fit._replace(eig=fit.eig._replace(rho=1.0, right=c, left=c),
                            sample=fit.sample._replace(phi_t=ones, phi_t1=ones, phi_star_t=ones))
    if fit.reason:
        raise RuntimeError(f"no usable fit: {fit.reason}")
    return fit


#: the discard reasons that ``bootstrap`` always reports: a fallback eigenpair, or under
#: recursive preferences an unconverged value recursion or a nonpositive continuation value
DISCARD_REASONS = FALLBACK_REASONS + ("unconverged_value_recursion", "nonpositive_continuation")


def bootstrap_statistic(
    design: Design,
    preferences: Optional[Union[PowerUtility, RecursiveUtility]],
):
    """Statistic for :func:`bootstrap_ci` on ``design.panel``, mapping count rows to the scalar functionals.

    The basis (sieve dimension, standardization, knots) is held fixed
    across replicates, so each block of count rows is one :func:`fit_stack`
    call on their :class:`CountRows`, whose replicate r weights transition
    pair t by counts[r, t]. Returns the :func:`long_run_stack` arrays of
    the count rows, and the value-recursion eigenvalue when preferences
    are recursive; none of them needs the eigenfunction's sample values. A
    replicate that :func:`fit_stack` does not keep is discarded (NaN),
    with its reason as the DISCARD_REASON entry.
    """

    def stat(counts: np.ndarray) -> dict:
        fit = fit_stack(CountRows(design, counts), preferences)
        out = {**long_run_stack(fit.eig.rho, fit.m, counts), DISCARD_REASON: fit.reason}
        if fit.fixed_point is not None:
            out["lambda"] = np.where(fit.reason == "", fit.fixed_point.lam, np.nan)
        return out

    return stat
