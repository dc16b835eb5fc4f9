"""Exact ground truth for the Gaussian AR(1) testbed.

Under the simulated law (a Gaussian AR(1) state x, growth exp(x')) power
and unit-EIS recursive preferences have exponential-affine solutions
(Hansen & Scheinkman, 2009), so the population Perron-Frobenius pair,
the long-run scalars and the continuation value are closed forms that
never touch the sample estimators. The Monte Carlo harness takes its
truths from them, and scores function-valued statistics on the
Gauss-Hermite nodes of the stationary law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .preferences import PowerUtility, RecursiveUtility


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


def closed_form_truth(
    design: Ar1Design,
    preferences: Union[PowerUtility, RecursiveUtility],
    nodes: np.ndarray,
    weights: np.ndarray,
) -> dict[str, Union[float, np.ndarray]]:
    """The population truths of a design, with its functions at ``nodes``.

    Returns {statistic: truth} for rho, y, L, phi and phi_star, and
    lambda and chi under recursive preferences. With
    sigma_x^2 = sigma^2/(1 - kappa^2) and u = x - mu:

    - chi(u) = exp(c u - c^2 sigma_x^2), c = kappa (1 - gamma)/(1 - beta kappa),
      and log lambda = (1 - beta) c^2 sigma_x^2 + (1 - gamma) mu + s^2 sigma^2/2,
      s = 1 - gamma + beta c, so that c = kappa s; power utility has c = 0;
    - m = C exp(-gamma x' + beta c u' - c u), where log C = log beta under
      power utility and log(beta A^(beta-1)/lambda), A = exp(-c^2 sigma_x^2),
      that is log beta - (1 - gamma) mu - s^2 sigma^2/2, under recursive ones;
    - phi ~ exp(a u) and phi* ~ exp(b u) with a = (kappa(beta c - gamma) - c)/(1 - kappa),
      which is -kappa/(1 - kappa) under recursive preferences, and
      b = (beta c - gamma - kappa c)/(1 - kappa); log rho = log C - gamma mu
      + q^2 sigma^2/2, q = a + beta c - gamma = (beta c - gamma - c)/(1 - kappa),
      y = -log rho and L = q^2 sigma^2/2.

    Every scale is formed from its logarithm, so that a persistent law
    whose A underflows still has a finite lambda, and 1 - beta kappa, a,
    b and q are written in forms that cancel no digits. The functions
    follow the harness's conventions under the stationary law: phi and
    chi have unit norm, and E[phi phi*] = 1.

    Raises ValueError when a scalar is not finite, or a function is not
    finite and positive at a node of positive weight.
    """
    beta, gamma, mu = preferences.beta, preferences.gamma, design.mu
    recursive = isinstance(preferences, RecursiveUtility)
    with np.errstate(all="ignore"):  # a too extreme law fails the check below
        kappa, half_var = np.float64(design.kappa), np.float64(design.sigma) ** 2 / 2
        var_x = 2.0 * half_var / ((1.0 - kappa) * (1.0 + kappa))
        c = s = 0.0
        if recursive:  # 1 - beta kappa = (1 - kappa) + kappa (1 - beta)
            s = (1.0 - gamma) / ((1.0 - kappa) + kappa * (1.0 - beta))
            c = kappa * s
        a = -kappa * (1.0 if recursive else gamma) / (1.0 - kappa)
        b = (c * (beta - kappa) - gamma) / (1.0 - kappa)
        q = (c * (beta - 1.0) - gamma) / (1.0 - kappa)
        log_c = np.log(beta) - ((1.0 - gamma) * mu + s * s * half_var if recursive else 0.0)
        log_rho = log_c - gamma * mu + q * q * half_var
        u = nodes - mu
        truth = {"rho": np.exp(log_rho), "y": -log_rho, "L": q * q * half_var,
                 "phi": np.exp(a * u - a * a * var_x),
                 "phi_star": np.exp(b * u + (a * a - (a + b) ** 2 / 2) * var_x)}
        if recursive:
            truth["lambda"] = np.exp((1.0 - beta) * c * c * var_x + (1.0 - gamma) * mu
                                     + s * s * half_var)
            truth["chi"] = np.exp(c * u - c * c * var_x)
    for key, value in truth.items():
        if np.ndim(value) == 0:
            if not np.isfinite(value):
                raise ValueError(f"the closed-form {key} is not finite; the AR(1) law is too extreme")
            truth[key] = float(value)
        elif not np.all((np.isfinite(value) & (value > 0)) | (weights == 0)):
            raise ValueError(f"the closed-form {key} is not finite and positive on the grid; "
                             "the AR(1) law is too extreme")
    return truth
