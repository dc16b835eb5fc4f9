"""Sample moment matrices for the sieve-reduced operator problems.

Given a state time series X_0..X_n, a panel's design holds the basis
vectors b(X_t) and b(X_{t+1}) of its n transition pairs. The Gram matrix
averages outer products of b(X_t) over t = 0..n-1; the pricing matrix
additionally weights by the discount-factor increment m_t and pairs X_t
with X_{t+1}. Both are plain sample averages of the corresponding
population moments, as is the value-recursion map in :mod:`valuefn`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .basis import SieveBasis

#: singular values below this multiple of the largest are truncated in
#: :attr:`Design.gram_pinv`
PINV_RCOND = 1e-10


@dataclass(frozen=True)
class StatePanel:
    """Aligned observations of the state process and per-period series.

    Row t of ``x0``/``x1`` holds the transition pair (X_t, X_{t+1});
    growth, sdf_increments and returns (when present) are aligned with it.
    ``states`` keeps the original X_0..X_n path when the panel was built
    from one (it is None for pair-resampled panels, e.g. bootstrap draws).
    """

    x0: np.ndarray  # (n, d)
    x1: np.ndarray  # (n, d)
    growth: Optional[np.ndarray] = None  # (n,) positive
    sdf_increments: Optional[np.ndarray] = None  # (n,) positive
    returns: Optional[np.ndarray] = None  # (n, p) gross returns
    states: Optional[np.ndarray] = None  # (n+1, d) original path, if any

    def __post_init__(self):
        for name in ("x0", "x1", "growth", "sdf_increments", "returns"):
            arr = getattr(self, name)
            if arr is not None and not np.all(np.isfinite(arr)):
                raise ValueError(f"panel field {name!r} contains non-finite values")
        if self.x0.shape != self.x1.shape:
            raise ValueError("x0 and x1 must have identical shapes")
        for name in ("growth", "sdf_increments"):
            arr = getattr(self, name)
            if arr is not None:
                if arr.shape[0] != self.n:
                    raise ValueError(f"{name} must have length n={self.n}")
                if np.any(arr <= 0):
                    t = int(np.argmax(arr <= 0))
                    raise ValueError(f"{name} must be strictly positive (first violation at t={t})")
        if self.returns is not None and self.returns.shape[0] != self.n:
            raise ValueError(f"returns must have n={self.n} rows")

    @property
    def n(self) -> int:
        return self.x0.shape[0]

    @property
    def state_dim(self) -> int:
        return self.x0.shape[1]

    @classmethod
    def from_states(
        cls,
        states: np.ndarray,
        growth: Optional[np.ndarray] = None,
        sdf_increments: Optional[np.ndarray] = None,
        returns: Optional[np.ndarray] = None,
    ) -> "StatePanel":
        """Build a panel from a path X_0..X_n (n+1 rows, d columns)."""
        s = np.asarray(states, dtype=float)
        if s.ndim == 1:
            s = s[:, None]
        if s.shape[0] < 2:
            raise ValueError("need at least two observations of the state")
        g = None if growth is None else np.asarray(growth, dtype=float).ravel()
        m = None if sdf_increments is None else np.asarray(sdf_increments, dtype=float).ravel()
        r = None if returns is None else np.atleast_2d(np.asarray(returns, dtype=float))
        return cls(x0=s[:-1], x1=s[1:], growth=g, sdf_increments=m, returns=r, states=s)

    def with_sdf(self, sdf_increments: np.ndarray) -> "StatePanel":
        """Copy of the panel with the given SDF increment series attached."""
        return StatePanel(
            x0=self.x0,
            x1=self.x1,
            growth=self.growth,
            sdf_increments=np.asarray(sdf_increments, dtype=float).ravel(),
            returns=self.returns,
            states=self.states,
        )

    def resample(self, idx: np.ndarray) -> "StatePanel":
        """Panel of the transition pairs (and aligned series) at ``idx``."""
        idx = np.asarray(idx, dtype=int)
        return StatePanel(
            x0=self.x0[idx],
            x1=self.x1[idx],
            growth=None if self.growth is None else self.growth[idx],
            sdf_increments=None
            if self.sdf_increments is None
            else self.sdf_increments[idx],
            returns=None if self.returns is None else self.returns[idx],
            states=None,
        )


class Design:
    """One panel's sieve design: b0 = b(X_t) and b1 = b(X_{t+1}), evaluated once.

    Every sample object of the estimator is a moment of these two
    matrices. Row t of ``b0``/``b1`` belongs to the panel's transition
    pair t, so a pair resample is a row selection (:meth:`resample`). The
    Gram matrix is formed, and condition-checked, on first use.
    """

    def __init__(self, basis: SieveBasis, panel: StatePanel):
        self.basis = basis
        self.panel = panel
        self.b0 = basis.evaluate_many(panel.x0)
        self.b1 = basis.evaluate_many(panel.x1)

    @property
    def n(self) -> int:
        return self.panel.n

    @cached_property
    def gram(self) -> np.ndarray:
        return estimate_gram(self)

    @cached_property
    def gram_pinv(self) -> np.ndarray:
        """Pseudo-inverse of the Gram matrix, singular values below PINV_RCOND times the largest cut."""
        return np.linalg.pinv(self.gram, rcond=PINV_RCOND)

    def resample(self, idx: np.ndarray) -> "Design":
        """Design of ``panel.resample(idx)``, by row selection instead of re-evaluation."""
        idx = np.asarray(idx, dtype=int)
        out = object.__new__(Design)
        out.basis = self.basis
        out.panel = self.panel.resample(idx)
        out.b0 = self.b0[idx]
        out.b1 = self.b1[idx]
        return out


def estimate_gram(design: Design) -> np.ndarray:
    """Sample Gram matrix (1/n) sum_t b(X_t) b(X_t)' over t = 0..n-1.

    The final observation X_n enters only the pricing matrix. Warns when
    n < k (underdetermined) or the result is numerically singular.
    """
    n, k = design.b0.shape
    if n < k:
        warnings.warn(
            f"n={n} below basis dimension k={k}; Gram matrix is singular",
            stacklevel=2,
        )
    gram = design.b0.T @ design.b0 / n
    gram = 0.5 * (gram + gram.T)
    if np.linalg.cond(gram) > 1e12:
        warnings.warn("Gram matrix numerically singular (condition > 1e12)", stacklevel=2)
    return gram


def estimate_pricing(design: Design, m: np.ndarray) -> np.ndarray:
    """Sample pricing matrix (1/n) sum_t b(X_t) m_t b(X_{t+1})'.

    ``m`` is the realized SDF increment series, one entry per transition
    pair; whether it comes from an observed column, a known formula or a
    plug-in with estimated components is the caller's concern.
    """
    n = design.n
    if m is None or np.shape(m) != (n,):
        raise ValueError(f"need the realized SDF increments m (sdf_increments) as a length-{n} series")
    m = np.asarray(m, dtype=float)
    return design.b0.T @ (m[:, None] * design.b1) / n
