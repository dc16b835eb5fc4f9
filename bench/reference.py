"""Independent numerics for the benchmark's output checks and inputs.

Nothing here imports sdfspectral. Each routine re-derives a quantity the
program reports, by a separate implementation: polynomial sieves from
numpy's HermiteE Vandermonde matrices, the sample moment matrices, the
largest real generalized eigenvalue, the unit-EIS value recursion, the
stationary bootstrap, and the closed-form Gaussian AR(1) eigenpair.
Sieve eigenvalues and the value-recursion eigenvalue depend only on the
span of the sieve, so a differently scaled or ordered basis of the same
span gives the same numbers up to rounding.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
from numpy.polynomial.hermite_e import hermevander


def polynomial_sieve(states: np.ndarray, degree: int, cap: int | None = None):
    """Evaluator of the polynomial sieve the program's Hermite/sparse bases span.

    Univariate states: all polynomials of degree <= ``degree``. Bivariate
    states: tensor terms He_i(x1) He_j(x2) with i, j <= ``degree`` and
    i + j < ``cap``. Coordinates are standardized by the sample mean and
    sd of ``states``; any affine standardization spans the same space.
    """
    x = np.asarray(states, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    mean = x.mean(axis=0)
    sd = x.std(axis=0)
    scale = np.array([math.sqrt(math.factorial(j)) for j in range(degree + 1)])
    if x.shape[1] == 1:
        terms = [(j,) for j in range(degree + 1)]
    else:
        terms = [(i, j) for i in range(degree + 1) for j in range(degree + 1) if i + j < cap]

    def evaluate(points: np.ndarray) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        if p.ndim == 1:
            p = p[:, None]
        tables = [hermevander((p[:, d] - mean[d]) / sd[d], degree) / scale
                  for d in range(p.shape[1])]
        cols = []
        for term in terms:
            col = np.ones(p.shape[0])
            for d, j in enumerate(term):
                col = col * tables[d][:, j]
            cols.append(col)
        return np.column_stack(cols)

    return evaluate


def gram(b0: np.ndarray) -> np.ndarray:
    """(1/n) sum_t b(X_t) b(X_t)'."""
    return b0.T @ b0 / b0.shape[0]


def pricing(b0: np.ndarray, b1: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(1/n) sum_t b(X_t) m_t b(X_{t+1})'."""
    return b0.T @ (m[:, None] * b1) / b0.shape[0]


def largest_real_eigenvalue(M: np.ndarray, G: np.ndarray):
    """Largest real eigenvalue of M c = rho G c, by Cholesky whitening.

    With G = L L', the pencil (M, G) has the eigenvalues of L^-1 M L^-T.
    Accepts stacks of pencils (leading axes) and returns one value each;
    a pencil without a real eigenvalue gives -inf.
    """
    L = np.linalg.cholesky(G)
    half = np.linalg.solve(L, np.swapaxes(M, -1, -2))
    vals = np.linalg.eigvals(np.linalg.solve(L, np.swapaxes(half, -1, -2)))
    real = np.abs(vals.imag) <= 1e-8 * (1.0 + np.abs(vals.real))
    top = np.where(real, vals.real, -np.inf).max(axis=-1)
    return float(top) if top.ndim == 0 else top


def value_recursion(b0, b1, growth, beta, gamma, tol=1e-13, max_iter=20_000):
    """Sieve solution of h(x) = E[G'^(1-gamma) h(X')^beta | x], unit empirical norm.

    Returns (lam, chi0, chi1): the eigenvalue and the unit-norm
    eigenfunction at X_t and X_{t+1}. The iteration runs on the
    eigenfunction's values at X_{t+1}, projecting the image onto the
    sieve by least squares (the program iterates on coefficients).
    """
    n = b0.shape[0]
    gw = np.exp((1.0 - gamma) * np.log(growth))
    q, r = np.linalg.qr(b0)  # projection onto the sieve in the empirical norm
    chi1 = np.ones(n)
    lam = 0.0
    for _ in range(max_iter):
        coeffs = np.linalg.solve(r, q.T @ (gw * np.abs(chi1) ** beta))  # regress on b(X_t)
        img0 = b0 @ coeffs
        lam = math.sqrt(float(img0 @ img0) / n)
        new1 = b1 @ coeffs / lam
        if np.max(np.abs(new1 - chi1)) < tol:
            chi1 = new1
            break
        chi1 = new1
    else:
        raise RuntimeError("reference value recursion did not converge")
    coeffs = np.linalg.solve(r, q.T @ (gw * np.abs(chi1) ** beta))
    lam = math.sqrt(float((b0 @ coeffs) @ (b0 @ coeffs)) / n)
    coeffs = coeffs / lam
    chi0, chi1 = b0 @ coeffs, b1 @ coeffs
    if chi0.mean() < 0:
        chi0, chi1 = -chi0, -chi1
    return lam, chi0, chi1


def recursive_sdf(growth, beta, gamma, lam, chi0, chi1) -> np.ndarray:
    """m_t = (beta / lam) G_{t+1}^-gamma chi(X_{t+1})^beta / chi(X_t)."""
    return (beta / lam) * np.exp(-gamma * np.log(growth)) * chi1**beta / chi0


def stationary_bootstrap(n: int, expected_block: float, b: int, rng) -> np.ndarray:
    """(b, n) index draws of the circular stationary bootstrap.

    Each draw concatenates blocks that start uniformly on 0..n-1, run
    forward modulo n, and have geometric lengths with mean
    ``expected_block``; the last block is cut at n indices.
    """
    out = np.empty((b, n), dtype=np.intp)
    pos = np.arange(n)
    for r in range(b):
        lengths = rng.geometric(1.0 / expected_block, size=n)
        ends = np.cumsum(lengths)
        blocks = int(np.searchsorted(ends, n)) + 1
        starts = rng.integers(n, size=blocks)
        block_of = np.searchsorted(ends[:blocks], pos, side="right")
        first = ends[:blocks] - lengths[:blocks]
        out[r] = (starts[block_of] + pos - first[block_of]) % n
    return out


def ar1_power_truth(mu, kappa, sigma, beta, gamma) -> dict:
    """Closed-form eigenvalue, yield and permanent entropy, Gaussian AR(1) power utility.

    With g' - mu = kappa (g - mu) + sigma e and m = beta exp(-gamma g'),
    the eigenfunction is exp(a (g - mu)) with a = -gamma kappa / (1 - kappa),
    and rho = beta exp(-gamma mu + gamma^2 sigma^2 / (2 (1 - kappa)^2)).
    """
    half_var = gamma**2 * sigma**2 / (2.0 * (1.0 - kappa) ** 2)
    rho = beta * math.exp(-gamma * mu + half_var)
    return {"rho": rho, "y": -math.log(rho), "L": half_var}
