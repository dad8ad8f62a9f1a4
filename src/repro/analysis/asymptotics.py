"""Asymptotic stopping-time analysis: exponent fits over decade sweeps.

The paper's headline results are *order-of-growth* statements — Theorem 2's
O(n) bound for uniform algebraic gossip on good expanders, the Ω(n²) barbell
regime, TAG's O(n) guarantee — but the published evaluation stops at finite-n
tables.  With the event-driven engine and direct CSR topology builds the
repository completes uniform AG at ``n = 10^6`` on one core, which makes the
asymptotic question empirically answerable: sweep ``n`` over decades, record
only the stopping times (the streaming-summary store path), and fit

    ``T(n) ≈ c · n^a``

by least squares on the log-log means.  :func:`fit_decades` is that fit,
with a deterministic bootstrap confidence interval on the exponent ``a`` so
a report can state "measured exponent 1.02 ± [0.97, 1.08]" rather than a
bare point estimate.  The ``asymptotics`` campaign
(:mod:`repro.campaigns.registry`) and ``python -m repro analyze fit`` drive
it end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..core.rng import derive_rng
from ..errors import AnalysisError
from .stopping_time import fit_power_law

__all__ = ["ExponentFit", "fit_decades"]


@dataclass(frozen=True)
class ExponentFit:
    """A power-law exponent fit with a bootstrap confidence interval.

    The point estimate comes from least squares on the log-log per-size
    means (:func:`~repro.analysis.stopping_time.fit_power_law`); the
    interval ``[ci_low, ci_high]`` holds the empirical
    ``confidence``-quantile range of the exponent over ``bootstrap``
    resampled replicates.  Everything is deterministic given the fit seed,
    so two runs over the same samples produce byte-identical reports.
    """

    exponent: float
    coefficient: float
    r_squared: float
    ci_low: float
    ci_high: float
    confidence: float
    points: int
    bootstrap: int

    def predict(self, n: float) -> float:
        """The fitted stopping time at size ``n``."""
        return self.coefficient * n**self.exponent

    def summary(self) -> str:
        """One-line human-readable form used by reports and the CLI."""
        return (
            f"exponent {self.exponent:.3f} "
            f"[{self.ci_low:.3f}, {self.ci_high:.3f}] "
            f"({self.confidence:.0%} bootstrap CI, {self.bootstrap} replicates), "
            f"r²={self.r_squared:.4f} over {self.points} sizes"
        )


def fit_decades(
    samples_by_n: Mapping[int, Sequence[float]],
    *,
    bootstrap: int = 200,
    seed: int = 0,
    confidence: float = 0.95,
) -> ExponentFit:
    """Fit the stopping-time exponent over a decade sweep.

    Parameters
    ----------
    samples_by_n:
        Per-size stopping-time samples, e.g. ``{1000: [...], 10000: [...]}``
        — the ``StoppingTimeStats.samples`` of each decade's unit.
    bootstrap:
        Number of resampled replicates behind the confidence interval.
        Replicate ``i`` resamples every size's samples with replacement
        using ``derive_rng(seed, f"bootstrap-{i}")``, so the interval is a
        pure function of the inputs and the seed.
    seed:
        Root seed of the bootstrap streams (fit randomness is independent
        of simulation randomness by construction).
    confidence:
        Two-sided coverage of the interval, strictly between 0 and 1.

    Degenerate inputs raise :class:`~repro.errors.AnalysisError`: fewer
    than two distinct sizes (a single decade cannot identify an exponent),
    a size with no samples, non-positive sizes or samples, and zero
    variance across sizes (every mean equal — the log-log slope is then
    unidentifiable noise, not evidence of an exponent).

    The fit runs in log space, so the recovered exponent is invariant (up
    to floating-point roundoff) under rescaling every sample by a positive
    constant — e.g. quoting timeslots instead of rounds at fixed ``n`` —
    and only the coefficient changes.
    """
    if bootstrap < 1:
        raise AnalysisError(
            f"fit_decades needs at least one bootstrap replicate, got {bootstrap}"
        )
    if not 0.0 < confidence < 1.0:
        raise AnalysisError(
            f"confidence must lie strictly between 0 and 1, got {confidence}"
        )
    sizes = sorted(int(n) for n in samples_by_n)
    if len(sizes) < 2:
        raise AnalysisError(
            "fit_decades needs at least two distinct sizes — a single "
            f"decade cannot identify an exponent; got sizes {sizes}"
        )
    if sizes[0] <= 0:
        raise AnalysisError(f"sizes must be strictly positive, got {sizes[0]}")
    arrays: list[np.ndarray] = []
    for n in sizes:
        samples = np.asarray(list(samples_by_n[n]), dtype=float)
        if samples.size == 0:
            raise AnalysisError(f"fit_decades got no samples for n={n}")
        if np.any(samples <= 0):
            raise AnalysisError(
                f"stopping-time samples must be strictly positive; n={n} "
                "carries a non-positive sample"
            )
        arrays.append(samples)
    means = [float(np.mean(samples)) for samples in arrays]
    if len(set(means)) == 1:
        raise AnalysisError(
            "zero variance across sizes: every mean stopping time equals "
            f"{means[0]}, so the log-log slope is unidentifiable"
        )
    point = fit_power_law(sizes, means)
    replicates = np.empty(bootstrap, dtype=float)
    for i in range(bootstrap):
        rng = derive_rng(seed, f"bootstrap-{i}")
        resampled = [
            float(np.mean(samples[rng.integers(0, samples.size, size=samples.size)]))
            for samples in arrays
        ]
        log_x = np.log(np.asarray(sizes, dtype=float))
        log_y = np.log(np.asarray(resampled, dtype=float))
        replicates[i] = float(np.polyfit(log_x, log_y, 1)[0])
    alpha = (1.0 - confidence) / 2.0
    ci_low, ci_high = np.quantile(replicates, [alpha, 1.0 - alpha])
    return ExponentFit(
        exponent=point.exponent,
        coefficient=point.coefficient,
        r_squared=point.r_squared,
        ci_low=float(ci_low),
        ci_high=float(ci_high),
        confidence=float(confidence),
        points=len(sizes),
        bootstrap=int(bootstrap),
    )
