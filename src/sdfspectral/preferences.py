"""Preference specifications and the SDF increments they imply."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class PowerUtility:
    """CRRA time-separable preferences: m_t = beta * G_{t+1}^(-gamma)."""

    beta: float
    gamma: float

    kind = "power"


@dataclass(frozen=True)
class RecursiveUtility:
    """Unit-EIS recursive preferences; the SDF needs a solved continuation value."""

    beta: float
    gamma: float

    kind = "recursive"


def power_utility_sdf(growth: Optional[np.ndarray], beta: float, gamma: float) -> np.ndarray:
    """beta * G^(-gamma) of an array of gross growth rates."""
    return beta * _growth_power(growth, -gamma)


def _growth_power(growth: Optional[np.ndarray], a) -> np.ndarray:
    """G^a of an array of gross growth rates, as exp(a log G); ``a`` broadcasts against it."""
    if growth is None:
        raise ValueError("panel has no growth series")
    x = a * np.log(growth)
    return np.exp(x, out=x)
