"""Scaling fits for measured stopping times.

The theorems are asymptotic statements; validating them empirically means
sweeping a parameter (``n`` or ``k``), measuring the stopping time at each
point (:func:`repro.experiments.run_trials` over seeded trials, or a
scenario's :meth:`~repro.scenarios.MaterializedScenario.run`), and fitting
how it scales (:func:`fit_power_law`, :func:`fit_linear`), so that e.g.
"Θ(k + D)" can be checked as "the measured time grows linearly in k with
slope O(1)".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import AnalysisError

__all__ = [
    "PowerLawFit",
    "LinearFit",
    "fit_power_law",
    "fit_linear",
]


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit of ``y ≈ coefficient * x ** exponent`` on a log-log scale."""

    exponent: float
    coefficient: float
    r_squared: float

    def predict(self, x: float) -> float:
        return self.coefficient * x**self.exponent


@dataclass(frozen=True)
class LinearFit:
    """Least-squares fit of ``y ≈ slope * x + intercept``."""

    slope: float
    intercept: float
    r_squared: float

    def predict(self, x: float) -> float:
        return self.slope * x + self.intercept


def _r_squared(observed: np.ndarray, predicted: np.ndarray) -> float:
    residual = float(np.sum((observed - predicted) ** 2))
    total = float(np.sum((observed - np.mean(observed)) ** 2))
    if total == 0.0:
        return 1.0
    return 1.0 - residual / total


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> PowerLawFit:
    """Fit ``y = c * x^a`` by linear regression in log-log space.

    Used to check claims like "the stopping time on the barbell grows
    quadratically in n" (exponent ≈ 2) or "TAG grows linearly" (exponent ≈ 1).
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size != ys.size or xs.size < 2:
        raise AnalysisError("fit_power_law needs at least two matching points")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise AnalysisError("fit_power_law requires strictly positive data")
    log_x, log_y = np.log(xs), np.log(ys)
    exponent, log_coefficient = np.polyfit(log_x, log_y, 1)
    predicted = exponent * log_x + log_coefficient
    return PowerLawFit(
        exponent=float(exponent),
        coefficient=float(np.exp(log_coefficient)),
        r_squared=_r_squared(log_y, predicted),
    )


def fit_linear(xs: Sequence[float], ys: Sequence[float]) -> LinearFit:
    """Fit ``y = a x + b``; used to check Θ(k) / Θ(n) linear-growth claims."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size != ys.size or xs.size < 2:
        raise AnalysisError("fit_linear needs at least two matching points")
    slope, intercept = np.polyfit(xs, ys, 1)
    predicted = slope * xs + intercept
    return LinearFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=_r_squared(ys, predicted),
    )
