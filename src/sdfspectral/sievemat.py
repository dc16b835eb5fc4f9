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
from typing import NamedTuple, Optional

import numpy as np

from .basis import SieveBasis
from .pfeig import GramFactor, _cholesky_stack

#: singular values below this multiple of the largest are truncated in
#: :attr:`Design.gram_pinv`
PINV_RCOND = 1e-10


@dataclass(frozen=True)
class StatePanel:
    """Aligned observations of the state process and per-period series.

    Row t of ``x0``/``x1`` holds the transition pair (X_t, X_{t+1});
    growth, sdf_increments and returns (when present) are aligned with it.
    ``states`` keeps the original X_0..X_n path when the panel was built
    from one.
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
        """Build a panel from a path X_0..X_n (n+1 rows, d columns); 1-D returns are one column."""
        s = np.asarray(states, dtype=float)
        if s.ndim == 1:
            s = s[:, None]
        if s.shape[0] < 2:
            raise ValueError("need at least two observations of the state")
        g = None if growth is None else np.asarray(growth, dtype=float).ravel()
        m = None if sdf_increments is None else np.asarray(sdf_increments, dtype=float).ravel()
        r = None if returns is None else np.column_stack([np.asarray(returns, dtype=float)])
        return cls(x0=s[:-1], x1=s[1:], growth=g, sdf_increments=m, returns=r, states=s)


class Whitening(NamedTuple):
    """The design rows in the coordinates of the Gram matrix's Cholesky factor G = L L'.

    A coefficient vector v has whitened coordinates u = L' v, in which the
    G-norm sqrt(v'Gv) is the Euclidean norm of u; ``w0 = b0 L^-'`` and
    ``w1t = L^-1 b1'`` give the sample values b(X_t)'v = w0 u and
    b(X_{t+1})'v = u' w1t, and ``mean`` is the mean row of w0, the
    whitened mean basis vector L^-1 mean b(X_t). Of a :class:`DesignStack`,
    each field has a leading replicate axis.
    """

    Li: np.ndarray  # (k, k) L^-1, of the SPD-ridged Gram matrix
    w0: np.ndarray  # (n, k)
    w1t: np.ndarray  # (k, n), C-ordered
    mean: np.ndarray  # (k,)


class _Moments:
    """The Gram matrix of the rows b0 (one per replicate of a stack), its factor and its whitening.

    Each is formed on first use.
    """

    @cached_property
    def gram(self) -> np.ndarray:
        return estimate_gram(self)

    @cached_property
    def factor(self) -> GramFactor:
        """The :func:`pfeig._cholesky_stack` record of the Gram matrices (a Design's: a stack of one)."""
        return _cholesky_stack(self.gram.reshape((-1,) + self.gram.shape[-2:]))

    @cached_property
    def whitening(self) -> Whitening:
        """The rows whitened by :attr:`factor`, each field of a stack with a leading R axis."""
        Li = self.factor.Li.reshape(self.gram.shape)
        w0 = self.b0 @ np.swapaxes(Li, -1, -2)
        w1t = Li @ np.swapaxes(self.b1, -1, -2)
        return Whitening(Li, w0, w1t, np.full(self.n, 1.0 / self.n) @ w0)

    @cached_property
    def b1_finite(self) -> np.ndarray:
        """Whether the rows b1 = b(X_{t+1}) are finite, of a stack one bool per replicate.

        They enter the pricing matrix and the value-recursion map but not
        the Gram matrix, so a factor that succeeded says nothing of them.
        """
        return np.all(np.isfinite(self.b1), axis=(-2, -1))


class Design(_Moments):
    """One panel's sieve design: b0 = b(X_t) and b1 = b(X_{t+1}), evaluated once.

    Every sample object of the estimator is a moment of these two
    matrices. Row t of ``b0``/``b1`` belongs to the panel's transition
    pair t, so a bootstrap replicate is a row weighting (:class:`CountRows`).
    """

    def __init__(self, basis: SieveBasis, panel: StatePanel):
        self.basis = basis
        self.panel = panel
        self.b0 = basis.evaluate_many(panel.x0)
        self.b1 = basis.evaluate_many(panel.x1)

    @property
    def n(self) -> int:
        return self.panel.n

    @property
    def growth(self) -> Optional[np.ndarray]:
        return self.panel.growth

    @property
    def const_coeffs(self) -> np.ndarray:
        return self.basis.const_coeffs

    @cached_property
    def gram_pinv(self) -> np.ndarray:
        """Pseudo-inverse of the Gram matrix, singular values below PINV_RCOND times the largest cut."""
        return np.linalg.pinv(self.gram, rcond=PINV_RCOND)

    @cached_property
    def gram_terms(self) -> np.ndarray:
        """(n, k*k) array whose row t is the flattened outer product b(X_t) b(X_t)'."""
        return rowwise_outer(self.b0, self.b0)

    @cached_property
    def pricing_terms(self) -> np.ndarray:
        """(n, k*k) array whose row t is the flattened outer product b(X_t) b(X_{t+1})'."""
        return rowwise_outer(self.b0, self.b1)


class DesignStack(_Moments):
    """The sieve designs of R panels of one length: (R, n, k) row stacks b0 and b1.

    Row r of ``b0``/``b1`` holds b_r(X_t) and b_r(X_{t+1}) of replicate r's
    own basis and panel, and row r of the (R, n) ``growth`` its growth
    series; the constant function has the coefficients ``const_coeffs`` in
    every basis. Each of its (R, k, k) Gram matrices is formed and factored
    as :class:`Design` forms its own. ``work``, if given, is an array of b1's
    shape that :func:`estimate_pricing` overwrites with its m-weighted b1
    rows, so that a caller can reuse it across stacks.
    """

    def __init__(
        self,
        b0: np.ndarray,
        b1: np.ndarray,
        growth: np.ndarray,
        const_coeffs: np.ndarray,
        work: Optional[np.ndarray] = None,
    ):
        self.b0, self.b1, self.growth, self.const_coeffs = b0, b1, growth, const_coeffs
        self.work = work

    @property
    def n(self) -> int:
        return self.b0.shape[1]


class CountRows(_Moments):
    """R count-weighted bootstrap replicates of one :class:`Design`.

    Row r of the (R, n) ``counts`` holds how often each transition pair of
    the design enters replicate r. The replicates share the design's rows
    ``b0`` and ``b1`` and its growth series; they have no sample values of
    their own. Each Gram matrix G_r = sum_t w_rt b(X_t) b(X_t)'/n is formed
    and factored on first use, without :func:`estimate_gram`'s checks.
    """

    def __init__(self, design: Design, counts: np.ndarray):
        if not isinstance(design, Design):
            raise ValueError("count rows weight the pairs of one design, not of a design stack")
        self.design, self.counts = design, np.asarray(counts, dtype=float)
        if self.counts.ndim != 2 or self.counts.shape[1] != design.n:
            raise ValueError(f"counts must have shape (R, {design.n})")
        self.b0, self.b1, self.panel, self.n = design.b0, design.b1, design.panel, design.n
        self.growth, self.const_coeffs = design.growth, design.const_coeffs

    @cached_property
    def gram(self) -> np.ndarray:
        w, k = self.counts, self.b0.shape[1]
        return (w @ self.design.gram_terms / self.n).reshape(len(w), k, k)


def estimate_gram(design: Design) -> np.ndarray:
    """Sample Gram matrix (1/n) sum_t b(X_t) b(X_t)' over t = 0..n-1.

    The final observation X_n enters only the pricing matrix. Warns when
    n < k (underdetermined), and, of a single :class:`Design`, when a
    finite result is numerically singular. Of a :class:`DesignStack`,
    returns the (R, k, k) stack of its Gram matrices, without the
    condition check: a singular one fails its own replicate's factor.
    """
    n, k = design.b0.shape[-2:]
    if n < k:
        warnings.warn(
            f"n={n} below basis dimension k={k}; Gram matrix is singular",
            stacklevel=2,
        )
    gram = np.swapaxes(design.b0, -1, -2) @ design.b0 / n
    gram = 0.5 * (gram + np.swapaxes(gram, -1, -2))
    if isinstance(design, Design) and np.all(np.isfinite(gram)):
        # G is symmetric, so its singular values are the moduli of its eigenvalues;
        # a non-finite G fails its factor instead
        modulus = np.abs(np.linalg.eigvalsh(gram))
        with np.errstate(divide="ignore"):  # an exactly singular G has condition inf
            if modulus.max() / modulus.min() > 1e12:
                warnings.warn("Gram matrix numerically singular (condition > 1e12)", stacklevel=2)
    return gram


def rowwise_outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, k*k) array whose row t is the flattened outer product a_t b_t'."""
    return (a[:, :, None] * b[:, None, :]).reshape(a.shape[0], -1)


def estimate_pricing(design: Design, m: np.ndarray) -> np.ndarray:
    """Sample pricing matrix (1/n) sum_t b(X_t) m_t b(X_{t+1})'.

    ``m`` is the realized SDF increment series, one entry per transition
    pair; whether it comes from an observed column, a known formula or a
    plug-in with estimated components is the caller's concern. An (R, n)
    ``m`` gives the (R, k, k) stack of one pricing matrix per row: of a
    :class:`Design`, one per series; of a :class:`DesignStack`, one per
    design; of :class:`CountRows`, M_r = sum_t w_rt m_rt b(X_t) b(X_{t+1})'/n.
    """
    n = design.n
    if m is None or np.shape(m)[-1:] != (n,):
        raise ValueError(f"need the realized SDF increments m (sdf_increments) as a length-{n} series")
    m = np.asarray(m, dtype=float)
    if isinstance(design, CountRows):
        w, k = design.counts, design.b0.shape[1]
        return ((w * m) @ design.design.pricing_terms / n).reshape(len(w), k, k)
    work = design.work if isinstance(design, DesignStack) else None
    return np.swapaxes(design.b0, -1, -2) @ np.multiply(m[..., None], design.b1, out=work) / n
