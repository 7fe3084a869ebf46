"""Unit tests for the Monte Carlo harness: curves, latency CDFs, convergence."""

from __future__ import annotations

import math

import pytest

from repro.core.quorum import ReplicaConfig
from repro.exceptions import AnalysisError, ConfigurationError
from repro.latency.distributions import ConstantLatency
from repro.latency.production import WARSDistributions, lnkd_ssd
from repro.montecarlo.convergence import trials_for_margin, wilson_interval
from repro.montecarlo.latency import latency_percentile_table, operation_latency_cdf
from repro.montecarlo.tvisibility import t_visibility_table, visibility_curve, visibility_curves


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        estimate = wilson_interval(990, 1_000)
        assert estimate.lower <= estimate.probability <= estimate.upper
        assert estimate.probability == pytest.approx(0.99)
        assert estimate.contains(0.99)

    def test_narrows_with_more_trials(self):
        small = wilson_interval(90, 100)
        large = wilson_interval(9_000, 10_000)
        assert large.margin < small.margin

    def test_extreme_counts_stay_in_unit_interval(self):
        zero = wilson_interval(0, 50)
        full = wilson_interval(50, 50)
        assert zero.lower == pytest.approx(0.0, abs=1e-12)
        assert full.upper == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= zero.lower <= zero.upper <= 1.0
        assert 0.0 <= full.lower <= full.upper <= 1.0

    def test_validation(self):
        with pytest.raises(AnalysisError):
            wilson_interval(5, 0)
        with pytest.raises(AnalysisError):
            wilson_interval(11, 10)
        with pytest.raises(AnalysisError):
            wilson_interval(1, 10, confidence=1.5)

    @pytest.mark.parametrize("confidence", [0.9, 0.95, 0.99, 0.999])
    def test_bounds_keep_the_norm_ppf_bits(self, confidence):
        """The reference is the Wilson interval with its z-score taken from
        ``scipy.stats.norm.ppf``; the module's z-score must reproduce it
        exactly."""
        from scipy import stats

        z = float(stats.norm.ppf(1.0 - (1.0 - confidence) / 2.0))
        for successes, trials in ((0, 50), (37, 50), (990, 1_000), (99_873, 100_000)):
            p_hat = successes / trials
            denominator = 1.0 + z**2 / trials
            centre = (p_hat + z**2 / (2 * trials)) / denominator
            half_width = (
                z * math.sqrt(p_hat * (1.0 - p_hat) / trials + z**2 / (4 * trials**2))
                / denominator
            )
            estimate = wilson_interval(successes, trials, confidence)
            assert estimate.lower == max(0.0, centre - half_width)
            assert estimate.upper == min(1.0, centre + half_width)


class TestTrialsForMargin:
    def test_tighter_margin_needs_more_trials(self):
        assert trials_for_margin(0.999, 0.0001) > trials_for_margin(0.999, 0.001)

    def test_known_value(self):
        # p=0.5, margin 0.01, z=1.96 -> ~9604 trials.
        assert trials_for_margin(0.5, 0.01) == pytest.approx(9_604, rel=0.01)

    def test_degenerate_probability(self):
        assert trials_for_margin(0.0, 0.01) == 1

    @pytest.mark.parametrize("confidence", [0.9, 0.95, 0.99, 0.999])
    def test_keeps_the_norm_ppf_answer(self, confidence):
        from scipy import stats

        z = float(stats.norm.ppf(1.0 - (1.0 - confidence) / 2.0))
        for probability, margin in ((0.5, 0.01), (0.999, 0.0005), (0.97, 0.0001)):
            expected = math.ceil(z**2 * (probability * (1.0 - probability)) / margin**2)
            assert trials_for_margin(probability, margin, confidence) == expected

    def test_validation(self):
        with pytest.raises(AnalysisError):
            trials_for_margin(1.5, 0.01)
        with pytest.raises(AnalysisError):
            trials_for_margin(0.5, 0.0)


class TestVisibilityCurves:
    def test_curve_is_monotone_and_bounded(self, exponential_wars, partial_config):
        curve = visibility_curve(
            exponential_wars, partial_config, times_ms=[0.0, 5.0, 20.0, 100.0], trials=20_000, rng=0
        )
        assert list(curve.times_ms) == [0.0, 5.0, 20.0, 100.0]
        probabilities = list(curve.probabilities)
        assert probabilities == sorted(probabilities)
        assert all(0.0 <= p <= 1.0 for p in probabilities)
        assert curve.trials == 20_000

    def test_interpolation_and_inverse_search(self, exponential_wars, partial_config):
        curve = visibility_curve(
            exponential_wars, partial_config, times_ms=[0.0, 10.0, 50.0, 200.0], trials=30_000, rng=1
        )
        target = curve.probabilities[2]
        assert curve.t_for_probability(target) <= 50.0
        assert curve.probability_at(10.0) == pytest.approx(curve.probabilities[1])
        with pytest.raises(ConfigurationError):
            curve.t_for_probability(0.0)

    def test_unreachable_target_returns_infinity(self):
        # A very slow, highly variable write path with near-instant reads keeps
        # the probability of consistency well below the target over a grid that
        # only extends to 1 ms, so the inverse search reports infinity.
        from repro.latency.distributions import ExponentialLatency

        distributions = WARSDistributions(
            w=ExponentialLatency.from_mean(1_000.0),
            a=ConstantLatency(0.001),
            r=ConstantLatency(0.001),
            s=ConstantLatency(0.001),
        )
        curve = visibility_curve(
            distributions, ReplicaConfig(3, 1, 1), times_ms=[0.0, 1.0], trials=2_000, rng=0
        )
        assert math.isinf(curve.t_for_probability(0.9999))

    def test_confidence_interval_at_grid_point(self, exponential_wars, partial_config):
        curve = visibility_curve(
            exponential_wars, partial_config, times_ms=[0.0, 20.0], trials=10_000, rng=2
        )
        estimate = curve.confidence_at(20.0)
        assert estimate.lower <= curve.probability_at(20.0) <= estimate.upper

    def test_rows_rendering(self, exponential_wars, partial_config):
        curve = visibility_curve(
            exponential_wars, partial_config, times_ms=[0.0, 5.0], trials=5_000, rng=0
        )
        rows = curve.as_rows()
        assert rows[0].keys() == {"t_ms", "p_consistent"}

    def test_multi_config_batch(self, exponential_wars):
        configs = [ReplicaConfig(3, 1, 1), ReplicaConfig(3, 2, 1)]
        curves = visibility_curves(
            exponential_wars, configs, times_ms=[0.0, 10.0], trials=10_000, rng=3
        )
        assert len(curves) == 2
        # Larger read quorum should not be less consistent at commit time.
        assert curves[1].probabilities[0] >= curves[0].probabilities[0]


class TestLatencyCDFs:
    def test_cdf_monotone_and_percentiles_ordered(self, exponential_wars, partial_config):
        cdf = operation_latency_cdf(exponential_wars, partial_config, trials=20_000, rng=0)
        read_curve = cdf.read_cdf([0.5, 1.0, 5.0, 50.0])
        fractions = [f for _, f in read_curve]
        assert fractions == sorted(fractions)
        assert cdf.read_percentile(50.0) <= cdf.read_percentile(99.9)
        assert cdf.write_percentile(50.0) <= cdf.write_percentile(99.9)

    def test_write_cdf_reflects_slow_writes(self, exponential_wars, partial_config):
        cdf = operation_latency_cdf(exponential_wars, partial_config, trials=20_000, rng=0)
        # Write path mean is 10 ms vs 2 ms for the other legs.
        assert cdf.write_percentile(50.0) > cdf.read_percentile(50.0)

    def test_invalid_trials(self, exponential_wars, partial_config):
        with pytest.raises(ConfigurationError):
            operation_latency_cdf(exponential_wars, partial_config, trials=0)

    def test_latency_percentile_table_rows(self, exponential_wars):
        rows = latency_percentile_table(
            {"EXP": exponential_wars},
            configs=[ReplicaConfig(3, 1, 1), ReplicaConfig(3, 2, 2)],
            percentiles=(50.0, 99.0),
            trials=5_000,
            rng=0,
        )
        assert len(rows) == 2
        assert {"environment", "config", "read_p50_ms", "write_p99_ms"} <= rows[0].keys()


class TestTVisibilityTable:
    def test_table_rows_cover_grid(self):
        rows = t_visibility_table(
            {"LNKD-SSD": lnkd_ssd()},
            configs=[ReplicaConfig(3, 1, 1), ReplicaConfig(3, 2, 2)],
            trials=10_000,
            rng=0,
        )
        assert len(rows) == 2
        strict_row = next(row for row in rows if row["config"] == ReplicaConfig(3, 2, 2))
        assert strict_row["t_visibility_ms"] == 0.0
        partial_row = next(row for row in rows if row["config"] == ReplicaConfig(3, 1, 1))
        assert partial_row["consistency_at_commit"] < 1.0
