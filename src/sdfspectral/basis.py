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
from itertools import product
from typing import Optional

import numpy as np


def _hermite_table(z: np.ndarray, degree: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Values He_j(z)/sqrt(j!) for j = 0..degree (probabilists' Hermite), on a new last axis.

    ``z`` may have any shape; the table has shape z.shape + (degree + 1,).
    The sqrt(j!) scaling makes the functions orthonormal under N(0, 1).
    The table is built degree-major, in ``out`` when given: an array of
    shape (degree + 1,) + z.shape, of which the table is a view.
    """
    z = np.asarray(z, dtype=float)
    # built degree-major, so that each step of the recurrence runs on contiguous values
    table = np.empty((degree + 1,) + z.shape) if out is None else out
    table[0] = 1.0
    if degree >= 1:
        table[1] = z
    for j in range(1, degree):
        np.multiply(z, table[j], out=table[j + 1])
        table[j + 1] -= j * table[j - 1]
    for j in range(2, degree + 1):  # sqrt(0!) = sqrt(1!) = 1
        table[j] /= math.sqrt(math.factorial(j))
    return np.moveaxis(table, 0, -1)


def _polynomial_values(
    z: np.ndarray,
    index_tuples,
    out: Optional[np.ndarray] = None,
    table: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Products of per-coordinate Hermite tables over the retained multi-indices.

    ``z`` holds standardized points, coordinates on its last axis and any
    leading shape; the result replaces that axis by one per multi-index,
    and is written into ``out`` when given. A univariate basis of degrees
    0..d is the Hermite table itself: it is built in ``table`` when given
    (see :func:`_hermite_table`) and copied once into the result, which
    equals the product of its columns with ones bit for bit.
    """
    values = np.empty(z.shape[:-1] + (len(index_tuples),)) if out is None else out
    if tuple(index_tuples) == tuple((j,) for j in range(len(index_tuples))):
        values[...] = _hermite_table(z[..., 0], len(index_tuples) - 1, out=table)
        return values
    tables = [
        _hermite_table(z[..., d], max(t[d] for t in index_tuples)) for d in range(z.shape[-1])
    ]
    values[...] = 1.0
    for col, idx in enumerate(index_tuples):
        for d, j in enumerate(idx):
            if j > 0:
                values[..., col] *= tables[d][..., j]
    return values


def _bspline_values(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Cubic B-spline values at points ``x`` in [t[3], t[-4]] on knots ``t``, an (m, len(t) - 4) array.

    The de Boor recursion of scipy's ``BSpline.design_matrix``, step for
    step and so with its bits, run on all points at once. Row i is zero
    outside the four functions that are nonzero on x[i]'s knot interval.
    """
    x = x + 0.0  # a -0.0 point becomes +0.0, as in scipy
    ell = np.clip(np.searchsorted(t, x, "right") - 1, 3, t.size - 5)
    h = np.zeros((4, x.size))
    h[0] = 1.0
    for j in range(1, 4):
        hh = h[:j].copy()
        h[0] = 0.0
        for n in range(1, j + 1):
            xb, xa = t[ell + n], t[ell + n - j]
            # w = 0 leaves h[n - 1] as it is and sets h[n] = 0 where the knots coincide
            w = np.divide(hh[n - 1], xb - xa, out=np.zeros_like(x), where=xb != xa)
            h[n - 1] += w * (xb - x)
            h[n] = w * (x - xa)
    values = np.zeros((x.size, t.size - 4))
    values[np.arange(x.size)[:, None], (ell - 3)[:, None] + np.arange(4)] = h.T
    return values


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
    family : str
        "hermite", "bspline" or "sparse" (tensor product), as in :class:`BasisSpec`.
    dimension_k : int
        Number of basis functions.
    state_dim : int
        Dimension of the state space.
    standardization : tuple of (mean, sd) pairs, or None
        Per-coordinate affine standardization (polynomial families).
    knots : ndarray or None
        Full clamped knot vector (univariate B-spline family).
    index_tuples : tuple of multi-indices, or None
        Per-function component degrees (polynomial families), in graded
        lexicographic order so the constant function comes first.
    """

    family: str
    dimension_k: int
    state_dim: int
    standardization: Optional[tuple[tuple[float, float], ...]] = None
    knots: Optional[np.ndarray] = None
    index_tuples: Optional[tuple[tuple[int, ...], ...]] = None

    @property
    def const_coeffs(self) -> np.ndarray:
        """Coefficient vector c with b(x)'c = 1 for every x."""
        if self.family == "bspline":
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

        if self.family == "bspline":
            t = self.knots
            return _bspline_values(np.clip(pts[:, 0], t[0], t[-1]), t)

        # Polynomial families: per-coordinate Hermite tables, then products
        # over the retained multi-indices.
        means, sds = np.array(self.standardization).T
        return _polynomial_values((pts - means) / sds, self.index_tuples)


def _constant(means: np.ndarray, sds: np.ndarray) -> np.ndarray:
    """Mask of the coordinates whose sample sd is rounding error: sd <= 4 eps |mean|.

    The sd of n copies of one double need not be 0: 201 copies of 0.005
    have a sample sd of 8.7e-19.
    """
    return sds <= 4 * np.finfo(float).eps * np.abs(means)


@dataclass(frozen=True)
class BasisSpec:
    """Serializable basis specification (family, k, degree, cap).

    ``build`` fits the data-dependent pieces (standardization or knots) to
    a sample, and is the one place a :class:`SieveBasis` is made; the spec
    itself carries only the configuration.
    """

    family: str
    k: Optional[int] = None
    degree: Optional[int] = None
    cap: Optional[int] = None

    def build(self, data: np.ndarray) -> SieveBasis:
        """Fit the basis to a sample, an (n, d) array or (n,) when d == 1.

        B-spline (univariate, cubic, ``k`` functions): the boundary knots
        sit at the data min/max with multiplicity 4, and the k - 4 interior
        knots at the linear-interpolation quantiles of levels i/(k-3).
        Evaluation clamps points outside the knot range to the boundary,
        so the basis stays a partition of unity on all of R.

        Polynomial families: each coordinate is standardized by its sample
        mean and sd (ddof 1), and a function is a product of per-coordinate
        Hermite polynomials He_j(z)/sqrt(j!) of degree at most ``degree``
        (``k - 1`` for Hermite when only k is given), in graded
        lexicographic order. Hermite keeps the full tensor product; sparse
        keeps the tuples of total degree below ``cap``, and reduces each
        column alone for its moments.

        Raises ValueError on a spec its family cannot build (a polynomial
        degree above 170 among them), fewer than two
        observations or than k (B-spline), a coordinate with zero sample
        variance (named), or ties that leave duplicate knots.
        """
        x = np.asarray(data, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        n, d = x.shape
        if self.family == "bspline":
            if d != 1:
                raise ValueError("bspline basis is univariate")
            if self.k is None:
                raise ValueError("bspline basis needs k")
            k = self.k
            if k < 5:
                raise ValueError("cubic B-spline basis needs k >= 5")
            if n < k:
                raise ValueError(f"need at least k={k} observations, got {n}")
            lo, hi = x.min(), x.max()
            interior = np.quantile(x[:, 0], np.arange(1, k - 3) / (k - 3))
            knots = np.concatenate([[lo], interior, [hi]])
            distinct = np.unique(knots).size
            if distinct != knots.size:
                raise ValueError(
                    f"tied data produce duplicate knots; only {distinct} distinct of {k - 2} required"
                )
            return SieveBasis("bspline", k, 1, knots=np.concatenate([[lo] * 3, knots, [hi] * 3]))
        if self.family == "hermite":
            if self.degree is None and self.k is None:
                raise ValueError("hermite basis needs k or degree")
            degree = self.degree if self.degree is not None else (self.k - 1)
            if degree < 0:
                raise ValueError("hermite basis needs k >= 1 or degree >= 0")
            blocks = [x]
        elif self.family == "sparse":
            if self.degree is None or self.cap is None:
                raise ValueError("sparse basis needs degree and cap")
            degree, blocks = self.degree, [x[:, j:j + 1] for j in range(d)]
        else:
            raise ValueError(f"unknown basis family {self.family!r}")
        if degree > 170:  # sqrt(j!) is a float up to j = 170
            raise ValueError(f"{self.family} basis degree {degree} is above 170, "
                             "the largest whose scale sqrt(degree!) is a float")
        # Hermite reduces the whole sample at once and sparse each column alone;
        # the two reductions can differ in the last bit, so each keeps its own
        if n < 2:
            raise ValueError("need at least 2 observations to standardize")
        means = np.concatenate([b.mean(axis=0) for b in blocks])
        sds = np.concatenate([b.std(axis=0, ddof=1) for b in blocks])
        bad = np.flatnonzero(_constant(means, sds))
        if bad.size:
            raise ValueError(f"coordinate {bad[0]} has zero sample variance")
        tuples = _graded_tuples([degree + 1] * d)
        if self.family == "sparse":
            if self.cap <= 0:
                raise ValueError("sparse basis needs cap > 0")
            tuples = [t for t in tuples if sum(t) < self.cap]
        return SieveBasis(
            self.family, len(tuples), d,
            standardization=tuple(zip(means.tolist(), sds.tolist())),
            index_tuples=tuple(tuples),
        )

    def evaluate_stack(
        self,
        samples: np.ndarray,
        points: np.ndarray,
        out: Optional[np.ndarray] = None,
        table: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fit the basis to each row of a stack of univariate samples; evaluate each there and at ``points``.

        Row r of the (R, m) ``samples`` gets the basis ``build(samples[r])``.
        Returns its values at samples[r] followed by those at the p shared
        ``points``, an (R, m + p, k) array; the coefficients of the constant
        function, which every row's basis shares; and an (R,) mask of the
        rows whose basis could not be built (zero variance, tied knots),
        which are NaN. Polynomial bases differ across rows only in their
        standardization, so one Hermite table serves the whole stack;
        B-spline knots are fitted and evaluated row by row.

        The values are written into ``out`` and a polynomial basis's
        Hermite table into ``table`` when these are given, arrays of
        shapes (R, m + p, k) and (k, R, m + p), so that a caller can reuse
        them across stacks.
        """
        samples = np.asarray(samples, dtype=float)
        pts = np.concatenate(
            [samples, np.broadcast_to(np.asarray(points, dtype=float), (len(samples), len(points)))],
            axis=1,
        )
        if self.family == "bspline":
            failed, rows, basis = np.zeros(len(samples), dtype=bool), [], None
            for r, x in enumerate(samples):
                try:
                    basis = self.build(x)
                except ValueError:
                    failed[r] = True
                    continue
                rows.append(basis.evaluate_many(pts[r]))
            if basis is None:
                return np.full(pts.shape + (0,), np.nan), np.zeros(0), failed
            values = np.empty(pts.shape + (basis.dimension_k,)) if out is None else out
            values[failed] = np.nan
            values[~failed] = rows
            return values, basis.const_coeffs, failed
        means, sds = samples.mean(axis=1), samples.std(axis=1, ddof=1)
        failed = _constant(means, sds)
        if failed.all():
            return np.full(pts.shape + (0,), np.nan), np.zeros(0), failed
        # every row's basis has the index tuples of the first one that builds
        basis = self.build(samples[np.argmin(failed)])
        z = (pts - means[:, None]) / np.where(failed, 1.0, sds)[:, None]
        values = _polynomial_values(z[..., None], basis.index_tuples, out, table)
        values[failed] = np.nan
        return values, basis.const_coeffs, failed
