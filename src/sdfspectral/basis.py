"""Sieve basis construction and evaluation.

Three families are supported: Hermite polynomials standardized by
per-coordinate location and scale (approximately orthonormal when the data
are roughly Gaussian), clamped cubic B-splines with interior knots at
evenly spaced sample quantiles, and sparse tensor products of univariate
polynomial bases truncated by total degree.

Bases are immutable after construction and evaluation is a pure function
of the input point, so instances may be shared freely across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Optional

import numpy as np
from scipy.interpolate import BSpline


class BasisFamily(Enum):
    HERMITE = "hermite"
    BSPLINE = "bspline"
    SPARSE_TENSOR = "sparse"


def _hermite_table(z: np.ndarray, degree: int) -> np.ndarray:
    """Columns He_j(z)/sqrt(j!) for j = 0..degree (probabilists' Hermite).

    The sqrt(j!) scaling makes the functions orthonormal under N(0, 1).
    """
    z = np.asarray(z, dtype=float)
    table = np.empty((z.size, degree + 1))
    table[:, 0] = 1.0
    if degree >= 1:
        table[:, 1] = z
    for j in range(1, degree):
        table[:, j + 1] = z * table[:, j] - j * table[:, j - 1]
    norms = np.array([math.sqrt(math.factorial(j)) for j in range(degree + 1)])
    return table / norms


def _graded_tuples(per_dim_sizes: list[int]) -> list[tuple[int, ...]]:
    """All index tuples, sorted by total degree then lexicographically."""
    tuples = list(product(*[range(s) for s in per_dim_sizes]))
    tuples.sort(key=lambda t: (sum(t), t))
    return tuples


@dataclass(frozen=True)
class SieveBasis:
    """A dictionary of ``dimension_k`` real-valued functions on R^state_dim.

    Attributes
    ----------
    family : BasisFamily
        Hermite, B-spline, or sparse tensor product.
    dimension_k : int
        Number of basis functions.
    state_dim : int
        Dimension of the state space.
    standardization : tuple of (mean, sd) pairs, or None
        Per-coordinate affine standardization (polynomial families).
    knots : ndarray or None
        Full clamped knot vector (univariate B-spline family).
    degree_caps : (int or None, int or None)
        Per-coordinate maximum degree and total-degree cap.
    index_tuples : tuple of multi-indices, or None
        Per-function component degrees (polynomial families), in graded
        lexicographic order so the constant function comes first.
    """

    family: BasisFamily
    dimension_k: int
    state_dim: int
    standardization: Optional[tuple[tuple[float, float], ...]] = None
    knots: Optional[np.ndarray] = None
    degree_caps: tuple[Optional[int], Optional[int]] = (None, None)
    index_tuples: Optional[tuple[tuple[int, ...], ...]] = None

    @property
    def function_degrees(self) -> Optional[np.ndarray]:
        """Total polynomial degree of each function; None for B-splines."""
        if self.index_tuples is None:
            return None
        return np.array([sum(t) for t in self.index_tuples])

    @property
    def const_coeffs(self) -> np.ndarray:
        """Coefficient vector c with b(x)'c = 1 for every x."""
        if self.family is BasisFamily.BSPLINE:
            return np.ones(self.dimension_k)
        c = np.zeros(self.dimension_k)
        c[self.index_tuples.index(tuple([0] * self.state_dim))] = 1.0
        return c

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """Evaluate all basis functions at each row of ``points``.

        Parameters
        ----------
        points : ndarray, shape (m, state_dim) or (m,) when state_dim == 1

        Returns
        -------
        ndarray, shape (m, dimension_k)
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.shape[1] != self.state_dim:
            raise ValueError(
                f"expected points with {self.state_dim} column(s), got {pts.shape[1]}"
            )
        if not np.all(np.isfinite(pts)):
            raise ValueError("basis evaluation requires finite inputs")

        if self.family is BasisFamily.BSPLINE:
            t = self.knots
            x = np.clip(pts[:, 0], t[0], t[-1])
            return BSpline.design_matrix(x, t, 3).toarray()

        # Polynomial families: per-coordinate Hermite tables, then products
        # over the retained multi-indices.
        tables = []
        for d in range(self.state_dim):
            mean, sd = self.standardization[d]
            max_deg = max(t[d] for t in self.index_tuples)
            tables.append(_hermite_table((pts[:, d] - mean) / sd, max_deg))
        out = np.ones((pts.shape[0], self.dimension_k))
        for col, idx in enumerate(self.index_tuples):
            for d, j in enumerate(idx):
                if j > 0:
                    out[:, col] *= tables[d][:, j]
        return out

    def evaluate(self, x) -> np.ndarray:
        """Evaluate all basis functions at a single point."""
        return self.evaluate_many(np.atleast_1d(np.asarray(x, dtype=float))[None, :])[0]


def hermite_basis_from_moments(
    means, sds, degree_per_dim: int
) -> SieveBasis:
    """Hermite basis standardized by known per-coordinate moments.

    Used where the standardization is fixed externally (e.g. population
    calculations on quadrature grids) rather than fitted to a sample.
    """
    means = np.atleast_1d(np.asarray(means, dtype=float))
    sds = np.atleast_1d(np.asarray(sds, dtype=float))
    if degree_per_dim < 0:
        raise ValueError("degree_per_dim must be non-negative")
    if np.any(sds <= 0):
        raise ValueError("standardization scales must be positive")
    d = means.size
    tuples = tuple(_graded_tuples([degree_per_dim + 1] * d))
    return SieveBasis(
        family=BasisFamily.HERMITE,
        dimension_k=len(tuples),
        state_dim=d,
        standardization=tuple((float(m), float(s)) for m, s in zip(means, sds)),
        degree_caps=(degree_per_dim, None),
        index_tuples=tuples,
    )


def build_hermite_basis(data: np.ndarray, degree_per_dim: int) -> SieveBasis:
    """Hermite basis standardized by the sample mean/sd of each coordinate.

    For a univariate state this returns ``degree_per_dim + 1`` functions
    He_j((x - mean)/sd) / sqrt(j!); for d > 1 the full tensor product.

    Raises
    ------
    ValueError
        If any coordinate has zero sample variance (the offending
        coordinate is named), or fewer than two observations are supplied.
    """
    x = np.asarray(data, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[0] < 2:
        raise ValueError("need at least 2 observations to standardize")
    means = x.mean(axis=0)
    sds = x.std(axis=0, ddof=1)
    bad = np.flatnonzero(sds <= 0)
    if bad.size:
        raise ValueError(f"coordinate {bad[0]} has zero sample variance")
    return hermite_basis_from_moments(means, sds, degree_per_dim)


def build_bspline_basis(data: np.ndarray, k: int) -> SieveBasis:
    """Cubic B-spline basis with clamped ends and quantile interior knots.

    Boundary knots sit at the data min/max (multiplicity 4); the k - 4
    interior knots sit at evenly spaced sample quantiles (levels i/(k-3),
    linear-interpolation quantiles). Evaluation clamps points outside the
    knot range to the boundary, so the basis stays a partition of unity on
    all of R.

    Raises
    ------
    ValueError
        If k < 5, n < k, or ties in the data leave fewer distinct knots
        than required after collapsing duplicates.
    """
    x = np.asarray(data, dtype=float).ravel()
    if k < 5:
        raise ValueError("cubic B-spline basis needs k >= 5")
    if x.size < k:
        raise ValueError(f"need at least k={k} observations, got {x.size}")
    lo, hi = x.min(), x.max()
    levels = np.arange(1, k - 3) / (k - 3)
    interior = np.quantile(x, levels)
    knots = np.concatenate([[lo], interior, [hi]])
    if np.unique(knots).size != knots.size:
        raise ValueError(
            "tied data produce duplicate knots; "
            f"only {np.unique(knots).size} distinct of {knots.size} required"
        )
    t = np.concatenate([[lo] * 3, knots, [hi] * 3])
    return SieveBasis(
        family=BasisFamily.BSPLINE,
        dimension_k=k,
        state_dim=1,
        knots=t,
    )


def build_sparse_tensor(bases: list[SieveBasis], total_degree_cap: int) -> SieveBasis:
    """Tensor products of univariate polynomial bases, truncated by total degree.

    A tensor term is retained iff the sum of its component degrees is
    strictly below ``total_degree_cap``. A cap exceeding every attainable
    total degree reproduces the full tensor product.
    """
    if total_degree_cap <= 0:
        raise ValueError("total_degree_cap must be positive")
    for i, b in enumerate(bases):
        if b.function_degrees is None:
            raise ValueError(f"component basis {i} is not polynomial-type")
        if b.state_dim != 1:
            raise ValueError(f"component basis {i} must be univariate")
    tuples = [
        idx
        for idx in _graded_tuples([b.dimension_k for b in bases])
        if sum(b.function_degrees[j] for b, j in zip(bases, idx)) < total_degree_cap
    ]
    tuples.sort(key=lambda t: (sum(t), t))
    return SieveBasis(
        family=BasisFamily.SPARSE_TENSOR,
        dimension_k=len(tuples),
        state_dim=len(bases),
        standardization=tuple(b.standardization[0] for b in bases),
        degree_caps=(max(b.degree_caps[0] for b in bases), total_degree_cap),
        index_tuples=tuple(tuples),
    )


@dataclass(frozen=True)
class BasisSpec:
    """Serializable basis specification (family, k, degree, cap).

    ``build`` fits the data-dependent pieces (standardization or knots) to
    a sample; the spec itself carries only the configuration.
    """

    family: str
    k: Optional[int] = None
    degree: Optional[int] = None
    cap: Optional[int] = None

    def build(self, data: np.ndarray) -> SieveBasis:
        x = np.asarray(data, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        d = x.shape[1]
        if self.family == "hermite":
            if self.degree is None and self.k is None:
                raise ValueError("hermite basis needs k or degree")
            degree = self.degree if self.degree is not None else (self.k - 1)
            if degree < 0:
                raise ValueError("hermite basis needs k >= 1 or degree >= 0")
            return build_hermite_basis(x if d > 1 else x[:, 0], degree)
        if self.family == "bspline":
            if d != 1:
                raise ValueError("bspline basis is univariate")
            if self.k is None:
                raise ValueError("bspline basis needs k")
            return build_bspline_basis(x[:, 0], self.k)
        if self.family == "sparse":
            if self.degree is None or self.cap is None:
                raise ValueError("sparse basis needs degree and cap")
            comps = [build_hermite_basis(x[:, j], self.degree) for j in range(d)]
            return build_sparse_tensor(comps, self.cap)
        raise ValueError(f"unknown basis family {self.family!r}")

    def to_dict(self) -> dict:
        out = {"family": self.family}
        for key in ("k", "degree", "cap"):
            if getattr(self, key) is not None:
                out[key] = getattr(self, key)
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "BasisSpec":
        allowed = {"family", "k", "degree", "cap"}
        unknown = set(d) - allowed
        if unknown:
            raise ValueError(f"unknown basis spec keys: {sorted(unknown)}")
        return cls(**d)
