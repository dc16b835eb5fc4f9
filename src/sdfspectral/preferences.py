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
    if growth is None:
        raise ValueError("panel has no growth series")
    return beta * np.exp(-gamma * np.log(growth))
