"""Regression tests for the query-path fixes that ride with the kernel PR.

* :class:`~repro.core.wars.WARSTrialResult` and
  :class:`~repro.montecarlo.latency.OperationLatencyCDF` cache their sorted
  trial arrays lazily, so repeated curve / t-visibility / CDF queries do not
  re-sort O(trials log trials) per call.
* :meth:`TVisibilityCurve.t_for_probability` interpolates the crossing
  within the bracketing probe span instead of snapping to the first grid
  time at/above the target.
* :meth:`TVisibilityCurve.confidence_at` rests on the probes' actual
  observed counts instead of counts reconstructed by rounding interpolated
  probabilities.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.quorum import ReplicaConfig
from repro.core.wars import WARSModel
from repro.latency.production import lnkd_disk, lnkd_ssd
from repro.montecarlo.engine import SAMPLE_BLOCK
from repro.montecarlo.latency import operation_latency_cdf
from repro.montecarlo.tvisibility import TVisibilityCurve, visibility_curve

_CONFIG = ReplicaConfig(3, 1, 1)


@pytest.fixture
def sort_counter(monkeypatch):
    """Count ``np.sort`` calls (the implementation's only full-sort entry)."""
    calls = {"count": 0}
    real_sort = np.sort

    def counting_sort(*args, **kwargs):
        calls["count"] += 1
        return real_sort(*args, **kwargs)

    monkeypatch.setattr(np, "sort", counting_sort)
    return calls


class TestSortedArrayCaching:
    def test_trial_result_queries_sort_once(self, sort_counter):
        result = WARSModel(lnkd_ssd(), _CONFIG).sample(5_000, 0)
        baseline = sort_counter["count"]  # sampling itself sorts the batch
        first_curve = result.consistency_curve([0.0, 1.0, 5.0])
        assert sort_counter["count"] == baseline + 1
        # Second and third queries — curve, point query, inversion — reuse
        # the cached sorted thresholds: no additional sort.
        second_curve = result.consistency_curve([0.0, 1.0, 5.0])
        result.consistency_probability(2.0)
        result.t_visibility(0.999)
        result.consistency_counts([0.0, 10.0])
        assert sort_counter["count"] == baseline + 1
        assert first_curve == second_curve

    def test_point_query_matches_unsorted_scan_semantics(self):
        result = WARSModel(lnkd_ssd(), _CONFIG).sample(5_000, 0)
        thresholds = result.staleness_thresholds_ms
        for t_ms in (0.0, 0.5, 2.0, 100.0):
            assert result.consistency_probability(t_ms) == float(
                np.mean(thresholds <= t_ms)
            )

    def test_latency_cdf_queries_sort_once_per_operation(self, sort_counter):
        cdf = operation_latency_cdf(lnkd_ssd(), _CONFIG, trials=5_000, rng=0)
        baseline = sort_counter["count"]
        first = cdf.read_cdf([1.0, 5.0, 10.0])
        cdf.write_cdf([1.0, 5.0, 10.0])
        assert sort_counter["count"] == baseline + 2  # one per operation kind
        # Repeat queries (same and different grids) trigger no further sort.
        assert cdf.read_cdf([1.0, 5.0, 10.0]) == first
        cdf.read_cdf([2.0])
        cdf.write_cdf([2.0])
        assert sort_counter["count"] == baseline + 2

    def test_cached_cdf_values_are_exact(self):
        cdf = operation_latency_cdf(lnkd_ssd(), _CONFIG, trials=5_000, rng=0)
        latencies = cdf.read_latencies_ms
        for grid_point, fraction in cdf.read_cdf([0.5, 1.5, 4.0]):
            assert fraction == float(np.mean(latencies <= grid_point))


class TestTForProbabilityInterpolation:
    def _curve(self, times, probabilities):
        return TVisibilityCurve(
            config=_CONFIG,
            label="synthetic",
            times_ms=tuple(times),
            probabilities=tuple(probabilities),
            trials=10_000,
        )

    def test_crossing_between_probes_is_interpolated(self):
        curve = self._curve((0.0, 10.0, 50.0), (0.2, 0.4, 0.9))
        t = curve.t_for_probability(0.65)
        assert t == pytest.approx(30.0)  # halfway up the (0.4, 0.9) span
        # The round trip recovers the target instead of overshooting by a
        # whole probe span (the old behaviour returned 50.0 -> 0.9).
        assert curve.probability_at(t) == pytest.approx(0.65)

    def test_exact_grid_answers_unchanged(self):
        curve = self._curve((0.0, 10.0, 50.0), (0.2, 0.4, 0.9))
        assert curve.t_for_probability(0.4) == 10.0  # exact probe value
        assert curve.t_for_probability(0.1) == 0.0  # met at the first probe
        assert curve.t_for_probability(0.9) == 50.0

    def test_unreachable_target_still_returns_infinity(self):
        curve = self._curve((0.0, 10.0), (0.2, 0.4))
        assert curve.t_for_probability(0.999) == float("inf")

    def test_flat_span_returns_upper_probe(self):
        curve = self._curve((0.0, 10.0, 20.0), (0.2, 0.5, 0.5))
        assert curve.t_for_probability(0.5) == 10.0

    def test_round_trip_on_sampled_coarse_grid(self):
        curve = visibility_curve(
            lnkd_disk(), _CONFIG, times_ms=(0.0, 50.0, 500.0), trials=20_000, rng=0
        )
        target = 0.5 * (curve.probabilities[1] + curve.probabilities[2])
        t = curve.t_for_probability(target)
        assert curve.times_ms[1] < t < curve.times_ms[2]
        assert curve.probability_at(t) == pytest.approx(target)

    def test_round_trip_on_adaptive_curve(self):
        curve = visibility_curve(
            lnkd_disk(),
            _CONFIG,
            times_ms=(0.0, 256.0),
            trials=8 * SAMPLE_BLOCK,
            rng=0,
            chunk_size=SAMPLE_BLOCK,
            target_probability=0.99,
            probe_resolution_ms=2.0,
        )
        t = curve.t_for_probability(0.99)
        assert np.isfinite(t)
        assert curve.probability_at(t) == pytest.approx(0.99, abs=1e-9)

    def test_invalid_target_rejected(self):
        from repro.exceptions import ConfigurationError

        curve = self._curve((0.0, 10.0), (0.2, 0.4))
        with pytest.raises(ConfigurationError):
            curve.t_for_probability(0.0)
        with pytest.raises(ConfigurationError):
            curve.t_for_probability(1.5)


class TestConfidenceAtObservedCounts:
    def test_probe_interval_uses_exact_successes(self):
        curve = visibility_curve(
            lnkd_ssd(), _CONFIG, times_ms=(0.0, 1.0, 5.0), trials=10_000, rng=2
        )
        assert curve.probe_successes is not None
        from repro.montecarlo.convergence import wilson_interval

        for index, t_ms in enumerate(curve.times_ms):
            estimate = curve.confidence_at(t_ms)
            expected = wilson_interval(
                curve.probe_successes[index], curve.trials, 0.95
            )
            assert estimate.probability == expected.probability
            assert estimate.lower == expected.lower
            assert estimate.upper == expected.upper

    def test_adaptive_probe_counts_are_carried_not_rounded(self):
        curve = visibility_curve(
            lnkd_disk(),
            _CONFIG,
            times_ms=(0.0, 256.0),
            trials=12 * SAMPLE_BLOCK,
            rng=0,
            chunk_size=SAMPLE_BLOCK,
            target_probability=0.99,
            probe_resolution_ms=2.0,
        )
        assert curve.probe_successes is not None
        assert len(curve.probe_successes) == len(curve.times_ms) > 2
        from repro.montecarlo.convergence import wilson_interval

        for t_ms, successes in zip(curve.times_ms, curve.probe_successes):
            estimate = curve.confidence_at(t_ms)
            expected = wilson_interval(successes, curve.trials, 0.95)
            # Every probe counted every trial, and the interval rests on the
            # probe's carried integer count, not one reconstructed by
            # rounding its probability.
            assert estimate.trials == curve.trials
            assert estimate.probability == expected.probability
            assert estimate.lower == expected.lower
            assert successes <= curve.trials

    def test_between_probe_queries_still_answer_conservatively(self):
        curve = visibility_curve(
            lnkd_ssd(), _CONFIG, times_ms=(0.0, 1.0, 5.0), trials=10_000, rng=2
        )
        estimate = curve.confidence_at(2.5)
        assert estimate.trials == curve.trials
        assert estimate.lower <= curve.probability_at(2.5) <= estimate.upper
