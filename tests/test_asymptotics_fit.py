"""Property-based tests of the decade-sweep exponent fit.

:func:`repro.analysis.fit_decades` underpins the ``asymptotics`` campaign's
headline numbers, so its contract is pinned down property-first:

* planted power laws ``T(n) = c·n^a`` are recovered within tolerance, both
  noiseless (exactly, up to float roundoff) and under bounded multiplicative
  noise;
* the exponent is invariant under rescaling every sample by one positive
  constant (quoting timeslots instead of rounds must not change the slope),
  and the bootstrap CI brackets are deterministic in the fit seed;
* degenerate inputs — a single decade, zero variance across sizes, empty or
  non-positive samples, nonsensical bootstrap/confidence settings — raise
  :class:`~repro.errors.AnalysisError` rather than returning a junk slope.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import ExponentFit, fit_decades
from repro.core.rng import derive_rng
from repro.errors import AnalysisError

DECADES = (100, 1_000, 10_000, 100_000)


def planted_samples(
    exponent: float,
    coefficient: float,
    *,
    sizes=DECADES,
    trials: int = 8,
    noise: float = 0.0,
    seed: int = 0,
) -> dict[int, list[float]]:
    """Per-size samples of ``c·n^a``, optionally with multiplicative noise."""
    samples: dict[int, list[float]] = {}
    for n in sizes:
        rng = derive_rng(seed, f"planted-{n}")
        base = coefficient * n**exponent
        samples[n] = [
            base * (1.0 + noise * (2.0 * rng.random() - 1.0)) for _ in range(trials)
        ]
    return samples


class TestPowerLawRecovery:
    @given(
        exponent=st.floats(min_value=0.1, max_value=2.5),
        coefficient=st.floats(min_value=0.5, max_value=50.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_noiseless_recovery_is_exact(self, exponent, coefficient):
        fit = fit_decades(planted_samples(exponent, coefficient), bootstrap=10)
        assert fit.exponent == pytest.approx(exponent, rel=1e-9)
        assert fit.coefficient == pytest.approx(coefficient, rel=1e-6)
        assert fit.r_squared == pytest.approx(1.0)
        # A noiseless planted law leaves the bootstrap nothing to vary.
        assert fit.ci_low == pytest.approx(exponent, rel=1e-9)
        assert fit.ci_high == pytest.approx(exponent, rel=1e-9)

    @given(
        exponent=st.floats(min_value=0.2, max_value=2.0),
        noise=st.floats(min_value=0.01, max_value=0.15),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_noisy_recovery_within_tolerance(self, exponent, noise, seed):
        samples = planted_samples(exponent, 3.0, noise=noise, seed=seed)
        fit = fit_decades(samples, bootstrap=50)
        # ±15% multiplicative noise over three decades moves the log-log
        # slope by far less than 0.1 — the tolerance the campaign's
        # "measured exponent ≈ 1" claims need.
        assert fit.exponent == pytest.approx(exponent, abs=0.1)
        assert fit.ci_low <= fit.ci_high
        assert fit.points == len(DECADES)

    def test_predict_inverts_the_fit(self):
        fit = fit_decades(planted_samples(1.0, 2.0), bootstrap=5)
        assert fit.predict(50_000) == pytest.approx(2.0 * 50_000, rel=1e-6)


class TestInvariances:
    @given(
        exponent=st.floats(min_value=0.2, max_value=2.0),
        scale=st.floats(min_value=1e-3, max_value=1e3),
        noise=st.floats(min_value=0.0, max_value=0.1),
    )
    @settings(max_examples=30, deadline=None)
    def test_exponent_invariant_under_sample_rescaling(self, exponent, scale, noise):
        samples = planted_samples(exponent, 4.0, noise=noise, seed=7)
        scaled = {n: [value * scale for value in values] for n, values in samples.items()}
        fit = fit_decades(samples, bootstrap=20)
        rescaled = fit_decades(scaled, bootstrap=20)
        # Invariant up to float roundoff only: the fit runs in log space,
        # where the scale becomes an additive intercept shift.
        assert rescaled.exponent == pytest.approx(fit.exponent, rel=1e-9, abs=1e-9)
        assert rescaled.coefficient == pytest.approx(fit.coefficient * scale, rel=1e-6)
        assert rescaled.ci_low == pytest.approx(fit.ci_low, rel=1e-9, abs=1e-9)
        assert rescaled.ci_high == pytest.approx(fit.ci_high, rel=1e-9, abs=1e-9)

    def test_bootstrap_is_deterministic_in_the_seed(self):
        samples = planted_samples(1.1, 2.0, noise=0.1, seed=3)
        first = fit_decades(samples, bootstrap=100, seed=5)
        second = fit_decades(samples, bootstrap=100, seed=5)
        assert first == second
        different = fit_decades(samples, bootstrap=100, seed=6)
        assert (different.ci_low, different.ci_high) != (first.ci_low, first.ci_high)

    def test_summary_is_one_human_readable_line(self):
        fit = fit_decades(planted_samples(1.0, 2.0), bootstrap=5)
        text = fit.summary()
        assert "\n" not in text
        assert "exponent 1.000" in text
        assert "95% bootstrap CI" in text
        assert isinstance(fit, ExponentFit)


class TestDegenerateInputs:
    def test_single_decade_raises(self):
        with pytest.raises(AnalysisError, match="at least two distinct sizes"):
            fit_decades({1000: [10.0, 11.0]})

    def test_empty_mapping_raises(self):
        with pytest.raises(AnalysisError, match="at least two distinct sizes"):
            fit_decades({})

    def test_zero_variance_across_sizes_raises(self):
        with pytest.raises(AnalysisError, match="zero variance across sizes"):
            fit_decades({100: [7.0, 7.0], 1000: [7.0, 7.0], 10_000: [7.0, 7.0]})

    def test_size_with_no_samples_raises(self):
        with pytest.raises(AnalysisError, match="no samples for n=1000"):
            fit_decades({100: [5.0], 1000: []})

    def test_non_positive_sample_raises(self):
        with pytest.raises(AnalysisError, match="strictly positive"):
            fit_decades({100: [5.0], 1000: [12.0, 0.0]})

    def test_non_positive_size_raises(self):
        with pytest.raises(AnalysisError, match="sizes must be strictly positive"):
            fit_decades({0: [5.0], 1000: [12.0]})

    @given(bootstrap=st.integers(min_value=-5, max_value=0))
    @settings(max_examples=6, deadline=None)
    def test_bad_bootstrap_raises(self, bootstrap):
        with pytest.raises(AnalysisError, match="bootstrap replicate"):
            fit_decades({100: [5.0], 1000: [12.0]}, bootstrap=bootstrap)

    @given(confidence=st.sampled_from([0.0, 1.0, -0.2, 1.5]))
    @settings(max_examples=4, deadline=None)
    def test_bad_confidence_raises(self, confidence):
        with pytest.raises(AnalysisError, match="strictly between 0 and 1"):
            fit_decades({100: [5.0], 1000: [12.0]}, confidence=confidence)

    def test_fit_errors_are_repro_errors(self):
        # The CLI maps ReproError to exit code 2; the fit's typed errors
        # must stay inside that hierarchy.
        from repro.errors import ReproError

        assert issubclass(AnalysisError, ReproError)


class TestDecadeSweepHelpers:
    def test_decade_ns_walks_the_decades(self):
        from repro.scenarios import decade_ns

        assert decade_ns(1000, 1_000_000) == (1000, 10_000, 100_000, 1_000_000)
        assert decade_ns(64, 640) == (64, 640)
        assert decade_ns(1000, 10_000, points_per_decade=2) == (1000, 3162, 10_000)

    def test_decade_ns_rejects_single_size(self):
        from repro.errors import ConfigurationError
        from repro.scenarios import decade_ns

        with pytest.raises(ConfigurationError, match="at least two sizes"):
            decade_ns(1000, 5000)

    def test_log_sized_cliques_keeps_edges_quasilinear(self):
        from repro.scenarios import log_sized_cliques

        for n in (64, 1000, 100_000):
            cliques = log_sized_cliques(n)["cliques"]
            size = n // cliques
            # Clique size tracks log2 n, so intra-clique edges stay
            # O(n log n) instead of the O(n^2/c) a fixed count gives.
            assert size <= max(4, math.ceil(math.log2(n))) + 1
            assert cliques >= 3 and n >= 2 * cliques

    def test_decade_sweep_scales_topology_params(self):
        from repro.scenarios import decade_sweep, get_scenario, log_sized_cliques

        base = get_scenario("event/ring-of-cliques")
        specs = decade_sweep(
            base, min_n=64, max_n=640, topology_params=log_sized_cliques, trials=2
        )
        assert [spec.n for spec in specs] == [64, 640]
        for spec in specs:
            params = dict(spec.topology_params)
            assert params == log_sized_cliques(spec.n)
            assert spec.trials == 2
            assert spec.name == "" and spec.description == ""
            assert spec.engine == base.engine
