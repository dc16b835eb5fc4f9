"""Reference maps that the tests check the estimators against.

A univariate Hermite basis standardized by fixed (population) moments
rather than fitted to a sample, the closed-form solution of the
power-utility eigenproblem on the Gaussian AR(1) testbed (its
conditional moment generating function is exponentially affine, so the
eigenfunction is an exponential in the state), a dense Gauss-Hermite
discretization of the population operators (an independent cross-check
of the closed-form truths of :mod:`sdfspectral.oracle`, solved by power
iteration on the grid), the population Gram and pricing matrices and
the population value-recursion map of a basis on the testbed's
quadrature grid, the sample value-recursion map of a design, written
out one map at a time as the plain formula that
:func:`sdfspectral.solve_value_stack` iterates in whitened, stacked
form, one replicate's substream generator as numpy's own
``SeedSequence`` builds it, and one stationary-bootstrap index sequence,
whose bincount is the count row that :func:`sdfspectral.bootstrap_ci`
builds from the same generator's draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from sdfspectral.basis import SieveBasis
from sdfspectral.oracle import Ar1Design, stationary_grid
from sdfspectral.preferences import PowerUtility, RecursiveUtility
from sdfspectral.sievemat import Design
from sdfspectral.valuefn import _growth_weights


def hermite_basis(mean: float, sd: float, degree: int) -> SieveBasis:
    """Hermite functions He_j((x - mean)/sd)/sqrt(j!), j = 0..degree, of a univariate state."""
    return SieveBasis(
        family="hermite",
        dimension_k=degree + 1,
        state_dim=1,
        standardization=((float(mean), float(sd)),),
        index_tuples=tuple((j,) for j in range(degree + 1)),
    )


@dataclass(frozen=True)
class AffineSolution:
    """Closed-form eigenvalue, log-eigenfunction slope, and entropy."""

    rho: float
    slope_a: float
    entropy_L: float


def affine_power_utility_solution(
    design: Ar1Design, beta: float, gamma: float
) -> AffineSolution:
    """Exponential-affine solution of the power-utility eigenproblem.

    The eigenfunction is proportional to exp(a (x - mu)) with
    a = -gamma kappa / (1 - kappa); the eigenvalue and the entropy of the
    permanent component follow from the Gaussian moment generating
    function.
    """
    a = -gamma * design.kappa / (1.0 - design.kappa)
    half_var = gamma**2 * design.sigma**2 / (2.0 * (1.0 - design.kappa) ** 2)
    rho = beta * math.exp(-gamma * design.mu + half_var)
    return AffineSolution(rho=rho, slope_a=a, entropy_L=half_var)


#: stopping rule of the grid value recursion: a weighted L2 step below
#: GRID_TOL, else an error after GRID_MAX_ITER iterations
GRID_TOL = 1e-13
GRID_MAX_ITER = 100_000


def transition_matrix(
    design: Ar1Design, nodes: np.ndarray, weights: np.ndarray,
    points: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Conditional-expectation matrix P with (P psi)_i ~ E[psi(X') | X = x_i].

    P[i, j] = f(x_j | x_i) w_j / f_Q(x_j): the transition density
    re-weighted against the stationary law carried by the quadrature.
    The rows x_i are the nodes, or the given ``points``.
    """
    mu, kappa, sigma = design.mu, design.kappa, design.sigma
    sd_x = design.stationary_std
    cond_mean = mu + kappa * ((nodes if points is None else points) - mu)
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


def population_sieve_matrices(
    sol: QuadratureSolution, basis
) -> tuple[np.ndarray, np.ndarray]:
    """Population Gram and pricing matrices of a basis under the grid operator.

    The counterparts of the sample matrices: G = E[b b'] and
    M = E[b(X) m b(X')'], both integrated on the quadrature grid.
    """
    B = basis.evaluate_many(sol.nodes)
    WB = sol.weights[:, None] * B
    return B.T @ WB, B.T @ (sol.weights[:, None] * (sol.kernel @ B))


def population_nonlinear_map(
    design: Ar1Design, basis, beta: float, gamma: float, q_nodes: int = 80
):
    """Population analogue of the sample value-recursion map on coefficients."""
    nodes, weights = stationary_grid(design, q_nodes)
    P = transition_matrix(design, nodes, weights)
    H = P * np.exp((1.0 - gamma) * nodes)[None, :]
    B = basis.evaluate_many(nodes)

    def t_map(v: np.ndarray) -> np.ndarray:
        return B.T @ (weights * (H @ np.abs(B @ v) ** beta))

    gram = B.T @ (weights[:, None] * B)
    return t_map, gram


def value_map(design: Design, beta: float, gamma: float) -> Callable[[np.ndarray], np.ndarray]:
    """Sample value-recursion map v -> (1/n) sum_t b(X_t) G_{t+1}^{1-gamma} |b(X_{t+1})'v|^beta.

    Positively homogeneous of degree beta in v. G^{1-gamma} is computed
    once per map, as exp((1-gamma) log G) so that large risk aversion does
    not overflow before the log would.
    """
    gw = _growth_weights(design.growth, np.float64(gamma))
    if not 0 < beta < 1:
        raise ValueError("beta must lie in (0, 1)")
    if not np.all(np.isfinite(gw)):
        t = int(np.argmax(~np.isfinite(gw)))
        raise ValueError(f"G^(1-gamma) overflows at t={t}; gamma too extreme for the data")
    b0, b1, n = design.b0, design.b1, design.n

    def t_map(v: np.ndarray) -> np.ndarray:
        return b0.T @ (gw * np.abs(b1 @ v) ** beta) / n

    return t_map


def replicate_rng(seed: int, *key: int) -> np.random.Generator:
    """Substream generator of the replicate that ``key`` names, from numpy's SeedSequence.

    The reference for ``inference._replicate_rngs``, which forms the same
    generators for many keys at once.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def stationary_bootstrap_indices(
    n: int, expected_block: float, rng: np.random.Generator
) -> np.ndarray:
    """One stationary-bootstrap index sequence of length n.

    The first index is uniform on {0..n-1}; each subsequent index
    continues the block (i+1 modulo n, circular wraparound) with
    probability 1 - 1/expected_block and otherwise restarts uniformly.
    Block lengths are geometric with the given mean. Fully determined by
    the generator state.
    """
    if expected_block < 1:
        raise ValueError("expected_block must be >= 1")
    p_restart = 1.0 / expected_block
    restart = rng.random(n) < p_restart
    restart[0] = True
    seg_id = np.cumsum(restart) - 1
    seg_start_pos = np.flatnonzero(restart)
    starts = rng.integers(0, n, size=seg_start_pos.size)
    offsets = np.arange(n) - seg_start_pos[seg_id]
    return (starts[seg_id] + offsets) % n
