"""Reference maps that the tests check the estimators against.

A univariate Hermite basis standardized by fixed (population) moments
rather than fitted to a sample, the closed-form solution of the
power-utility eigenproblem on the Gaussian AR(1) testbed (its
conditional moment generating function is exponentially affine, so the
eigenfunction is an exponential in the state), the population Gram and
pricing matrices and the population value-recursion map of a basis on
the testbed's quadrature grid, the sample value-recursion map of a
design, written out one map at a time as the plain formula that
:func:`sdfspectral.solve_value_stack` iterates in whitened, stacked
form, one replicate's substream generator as numpy's own
``SeedSequence`` builds it, and one stationary-bootstrap index sequence,
whose bincount is the count row that :func:`sdfspectral.bootstrap_ci`
builds from the same generator's draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from sdfspectral.basis import SieveBasis
from sdfspectral.oracle import Ar1Design, QuadratureSolution, stationary_grid, transition_matrix
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
