"""Independent ground truth for the Gaussian AR(1) testbed.

A dense Gauss-Hermite discretization of the population operators that
never touches the sample estimators and works for any of the supported
preference specifications; the Monte Carlo harness takes its truths from
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .preferences import PowerUtility, RecursiveUtility

#: stopping rule of the grid value recursion: a weighted L2 step below
#: GRID_TOL, else an error after GRID_MAX_ITER iterations
GRID_TOL = 1e-13
GRID_MAX_ITER = 100_000


@dataclass(frozen=True)
class Ar1Design:
    """Gaussian AR(1) law for log growth: g' - mu = kappa (g - mu) + sigma e."""

    mu: float
    kappa: float
    sigma: float

    def __post_init__(self):
        if not abs(self.kappa) < 1:
            raise ValueError("need |kappa| < 1 for stationarity")
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")

    @property
    def stationary_std(self) -> float:
        return self.sigma / math.sqrt(1.0 - self.kappa**2)


def stationary_grid(design: Ar1Design, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes/weights for the stationary law N(mu, sigma_x^2)."""
    u, w = hermgauss(q)
    nodes = design.mu + math.sqrt(2.0) * design.stationary_std * u
    weights = w / math.sqrt(math.pi)
    return nodes, weights


def transition_matrix(
    design: Ar1Design, nodes: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Conditional-expectation matrix P with (P psi)_i ~ E[psi(X') | X = x_i].

    P[i, j] = f(x_j | x_i) w_j / f_Q(x_j): the transition density
    re-weighted against the stationary law carried by the quadrature.
    """
    mu, kappa, sigma = design.mu, design.kappa, design.sigma
    sd_x = design.stationary_std
    cond_mean = mu + kappa * (nodes - mu)
    f_cond = (
        np.exp(-0.5 * ((nodes[None, :] - cond_mean[:, None]) / sigma) ** 2)
        / (sigma * math.sqrt(2.0 * math.pi))
    )
    f_stat = np.exp(-0.5 * ((nodes - mu) / sd_x) ** 2) / (sd_x * math.sqrt(2.0 * math.pi))
    return f_cond * (weights / f_stat)[None, :]


@dataclass(frozen=True)
class QuadratureSolution:
    """The discretized pricing operator and its population eigen objects on a stationary grid.

    ``kernel[i, j]`` approximates the operator so that (K psi)(x_i) is
    kernel @ psi; ``weights`` integrate against the stationary law and sum
    to one; ``transition`` is the plain conditional-expectation matrix.
    ``lam`` and ``chi`` are the value-recursion eigenpair of recursive
    preferences, None under power utility.
    """

    nodes: np.ndarray
    weights: np.ndarray
    kernel: np.ndarray
    transition: np.ndarray
    rho: float
    phi: np.ndarray
    phi_star: np.ndarray
    yield_y: float
    entropy_L: float
    lam: Optional[float] = None
    chi: Optional[np.ndarray] = None


def _power_iteration(step, weights, tol: float, max_iter: int, what: str) -> np.ndarray:
    """Normalized power iteration v -> step(v) / ||step(v)|| from the constant vector.

    The norm is the weighted L2 norm of the grid. Returns the first iterate
    whose step from the last is below ``tol`` in that norm, and raises
    RuntimeError naming ``what`` when none is within ``max_iter`` iterations.
    """
    v = np.ones(weights.size)
    for _ in range(max_iter):
        image = step(v)
        nxt = image / math.sqrt(float(weights @ image**2))
        if math.sqrt(float(weights @ (nxt - v) ** 2)) < tol:
            return nxt
        v = nxt
    raise RuntimeError(f"the oracle's {what} did not converge on the grid in {max_iter} iterations")


def _largest_real_pair(kernel: np.ndarray, weights: np.ndarray):
    """Perron root with positive right/adjoint eigenvectors, all from one power iteration.

    The grid kernel is entrywise non-negative, so power iteration from the
    constant vector keeps every component non-negative; a QZ eigenvector
    would instead carry rounding noise of arbitrary sign at far-tail nodes
    whose weight has underflowed. The root is the two-sided quotient
    u'K phi / u'phi of the right and left iterates, whose error is the
    product of theirs.
    """
    phi = _power_iteration(lambda v: kernel @ v, weights, 1e-14, 2000, "Perron vector")
    # The grid adjoint in the weighted inner product is D^-1 K' D, so the
    # adjoint eigenfunction solves the transposed problem reweighted by D.
    u = _power_iteration(lambda v: kernel.T @ v, weights, 1e-14, 2000, "adjoint Perron vector")
    rho = float(u @ (kernel @ phi)) / float(u @ phi)
    phi_star = u / weights

    phi_star = phi_star / float(weights @ (phi * phi_star))
    return rho, phi, phi_star


def _recursive_grid_solution(
    beta: float,
    gamma: float,
    nodes: np.ndarray,
    weights: np.ndarray,
    transition: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Unit-norm eigenfunction and eigenvalue of the grid value-recursion operator."""
    growth_w = np.exp((1.0 - gamma) * nodes)
    H = transition * growth_w[None, :]

    def t_apply(v):
        return H @ np.abs(v) ** beta

    chi = _power_iteration(t_apply, weights, GRID_TOL, GRID_MAX_ITER, "value recursion")
    lam = math.sqrt(float(weights @ t_apply(chi) ** 2))
    return lam, chi


def quadrature_eig(
    design: Ar1Design,
    sdf_spec: Union[PowerUtility, RecursiveUtility],
    q_nodes: int = 80,
) -> QuadratureSolution:
    """Population eigenvalue/eigenfunctions via dense quadrature.

    Discretizes the pricing operator on a Gauss-Hermite grid under the
    stationary law and finds the Perron pair of the positive kernel by
    power iteration. For recursive preferences the continuation-value
    eigenpair is solved first on the same grid and the implied SDF
    plugged into the pricing operator.
    Growth is exp of the (next-period) state throughout.

    Raises ValueError when the kernel is not finite, as where the grid
    continuation value underflows under a too persistent AR(1) law, or
    when the long-run measure of the Perron pair runs off the grid, and
    RuntimeError when a power iteration does not converge, as under a
    strongly alternating one.
    """
    if q_nodes < 40:
        raise ValueError("use at least 40 quadrature nodes")
    nodes, weights = stationary_grid(design, q_nodes)
    P = transition_matrix(design, nodes, weights)

    lam = None
    chi = None
    if isinstance(sdf_spec, PowerUtility):
        m_pair = sdf_spec.beta * np.exp(-sdf_spec.gamma * nodes)[None, :]
    elif isinstance(sdf_spec, RecursiveUtility):
        lam, chi = _recursive_grid_solution(
            sdf_spec.beta, sdf_spec.gamma, nodes, weights, P
        )
        m_pair = (
            (sdf_spec.beta / lam)
            * np.exp(-sdf_spec.gamma * nodes)[None, :]
            * (chi[None, :] ** sdf_spec.beta / chi[:, None])
        )
    else:
        raise TypeError(f"unsupported SDF specification {sdf_spec!r}")

    kernel = m_pair * P
    if not np.all(np.isfinite(kernel)):
        raise ValueError("the oracle's quadrature kernel is not finite; the AR(1) law is too extreme")
    rho, phi, phi_star = _largest_real_pair(kernel, weights)
    # The long-run density w phi phi* sums to one on the grid. Where the grid
    # carries it, the two outermost nodes at each end hold far below 1e-12 of
    # it (at most 1.7e-20 at 80 nodes for |kappa| <= 0.9, sigma 0.01, gamma 5
    # or 15); where they hold more, the measure runs off the grid, and rho
    # moves in its sixth digit or earlier (kappa 0.93 and 0.95 at gamma 15).
    density = weights * phi * phi_star
    if density[:2].sum() + density[-2:].sum() > 1e-12:
        raise ValueError("the oracle's long-run measure runs off its quadrature grid; "
                         "the AR(1) law is too persistent")

    # the stationary mean of log m over transition pairs (x_i, x_j)
    mean_log_m = float(weights @ np.sum(P * np.log(m_pair), axis=1))
    return QuadratureSolution(
        nodes=nodes,
        weights=weights,
        kernel=kernel,
        transition=P,
        rho=rho,
        phi=phi,
        phi_star=phi_star,
        yield_y=-math.log(rho),
        entropy_L=math.log(rho) - mean_log_m,
        lam=lam,
        chi=chi,
    )
