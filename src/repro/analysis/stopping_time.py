"""Empirical stopping-time measurement and scaling fits.

The theorems are asymptotic statements; validating them empirically means

1. running a protocol many times with independent seeds and summarising the
   stopping-time distribution (:func:`run_trials`), and
2. sweeping a parameter (``n`` or ``k``) and fitting how the stopping time
   scales with it (:func:`fit_power_law`, :func:`fit_linear`), so that e.g.
   "Θ(k + D)" can be checked as "the measured time grows linearly in k with
   slope O(1)".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..core.config import SimulationConfig
from ..core.results import RunResult, StoppingTimeStats, aggregate_results
from ..core.rng import derive_rng
from ..errors import AnalysisError
from ..gossip.engine import GossipEngine, GossipProcess
from ..graphs.csr import CSRGraph

__all__ = [
    "ProtocolFactory",
    "run_trials",
    "measure_protocol",
    "PowerLawFit",
    "LinearFit",
    "fit_power_law",
    "fit_linear",
    "ratio_is_bounded",
]

#: A factory building a fresh protocol instance for one trial.  It receives
#: the trial's random generator so that message contents, coding coefficients
#: and any protocol-internal randomness are independent across trials.
ProtocolFactory = Callable[[CSRGraph, np.random.Generator], GossipProcess]


def measure_protocol(
    graph: CSRGraph,
    protocol_factory: ProtocolFactory,
    config: SimulationConfig,
    *,
    trials: int = 5,
    seed: int = 0,
) -> list[RunResult]:
    """Run ``trials`` independent simulations and return every :class:`RunResult`.

    This is the sequential reference runner.
    :func:`repro.experiments.parallel.measure_protocol_parallel` produces the
    same results (same seeds → same stopping times) through the event-driven
    engine and worker processes; prefer it for large trial counts.
    """
    if trials < 1:
        raise AnalysisError(f"trials must be positive, got {trials}")
    results: list[RunResult] = []
    for trial in range(trials):
        rng = derive_rng(seed, f"trial-{trial}")
        process = protocol_factory(graph, rng)
        engine = GossipEngine(graph, process, config, rng)
        results.append(engine.run())
    return results


def run_trials(
    graph: CSRGraph,
    protocol_factory: ProtocolFactory,
    config: SimulationConfig,
    *,
    trials: int = 5,
    seed: int = 0,
) -> StoppingTimeStats:
    """Like :func:`measure_protocol` but collapse the results into statistics."""
    return aggregate_results(
        measure_protocol(graph, protocol_factory, config, trials=trials, seed=seed)
    )


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


def ratio_is_bounded(
    measured: Sequence[float], bounds: Sequence[float], *, max_ratio: float
) -> bool:
    """Check ``measured[i] <= max_ratio * bounds[i]`` for every point.

    This is how "the measured stopping time is O(bound)" is validated: the
    ratio must stay below a fixed constant across the entire sweep.
    """
    measured = np.asarray(measured, dtype=float)
    bounds = np.asarray(bounds, dtype=float)
    if measured.shape != bounds.shape:
        raise AnalysisError("measured and bounds must have the same length")
    if np.any(bounds <= 0):
        raise AnalysisError("bounds must be strictly positive")
    return bool(np.all(measured <= max_ratio * bounds))
