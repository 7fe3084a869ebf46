"""Closed-form contracts every latency distribution must honour.

Three families of checks, applied uniformly to every distribution class:

* ``cdf(ppf(q)) == q`` wherever the distribution is continuous (atoms — the
  clip at zero for truncated normals, constant distributions — make the CDF
  jump, so the round trip there asserts ``cdf(ppf(q)) >= q`` instead);
* ``ppf(cdf(x)) == x`` on the interior of the support;
* analytic ``mean()``/``variance()`` agree with large-sample moments.

Plus the regression test for the base-class fallback: distributions without
closed forms must draw their 200k-sample quantile cache exactly once, no
matter how many ``variance``/``cdf``/``ppf`` queries follow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DistributionError
from repro.latency.base import LatencyDistribution
from repro.latency.distributions import (
    ConstantLatency,
    ExponentialLatency,
    LogNormalLatency,
    NormalLatency,
    ParetoLatency,
    ScaledLatency,
    ShiftedLatency,
    UniformLatency,
    standard_normal_ppf,
)
from repro.latency.empirical import EmpiricalDistribution, QuantileTableDistribution
from repro.latency.mixture import MixtureDistribution
from repro.latency.production import lnkd_disk

#: (distribution, lowest continuous quantile) — the floor skips atoms: the
#: truncated normal has mass at zero, so quantiles below cdf(0) all map to 0.
_CONTINUOUS_CASES: tuple[tuple[LatencyDistribution, float], ...] = (
    (ExponentialLatency(rate=0.3), 0.0),
    (ParetoLatency(xm=1.5, alpha=3.8), 0.0),
    (UniformLatency(low=1.0, high=5.0), 0.0),
    (NormalLatency(mu=4.0, sigma=1.0), NormalLatency(mu=4.0, sigma=1.0).cdf(0.0)),
    (NormalLatency(mu=1.0, sigma=2.0), NormalLatency(mu=1.0, sigma=2.0).cdf(0.0)),
    (LogNormalLatency(mu=0.5, sigma=0.8), 0.0),
    (ShiftedLatency(ExponentialLatency(rate=1.0), offset=2.0), 0.0),
    (ScaledLatency(ParetoLatency(xm=1.0, alpha=3.0), factor=2.5), 0.0),
    (lnkd_disk().w, 0.0),  # Pareto-body + exponential-tail mixture
    (
        EmpiricalDistribution(
            observations=np.random.default_rng(3).exponential(2.0, size=5_000)
        ),
        0.0,
    ),
    (
        QuantileTableDistribution.from_percentiles(
            [(50.0, 3.0), (95.0, 8.0), (99.0, 15.0)], minimum=1.0, maximum=40.0
        ),
        0.0,
    ),
)

_CASE_IDS = [type(case[0]).__name__ + f"-{i}" for i, case in enumerate(_CONTINUOUS_CASES)]


@pytest.mark.parametrize("distribution,floor", _CONTINUOUS_CASES, ids=_CASE_IDS)
class TestQuantileRoundTrips:
    @given(q=st.floats(min_value=0.001, max_value=0.999))
    @settings(max_examples=50, deadline=None)
    def test_cdf_of_ppf_recovers_quantile(self, distribution, floor, q):
        if q <= floor:
            # Below an atom the quantile maps onto the atom itself, where the
            # CDF jumps to at least the atom's mass.
            assert distribution.cdf(distribution.ppf(q)) >= q - 1e-6
        else:
            assert distribution.cdf(distribution.ppf(q)) == pytest.approx(q, abs=2e-3)

    @given(q=st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=50, deadline=None)
    def test_ppf_of_cdf_recovers_value(self, distribution, floor, q):
        if q <= floor:
            return
        x = distribution.ppf(q)
        assert distribution.ppf(distribution.cdf(x)) == pytest.approx(
            x, rel=2e-2, abs=2e-2
        )

    def test_ppf_rejects_out_of_range(self, distribution, floor):
        with pytest.raises(DistributionError):
            distribution.ppf(-0.1)
        with pytest.raises(DistributionError):
            distribution.ppf(1.1)
        for bad in (-0.1, 1.1, math.nan):
            with pytest.raises(DistributionError):
                distribution.ppf(np.array([0.2, bad, 0.8]))
            with pytest.raises(DistributionError):
                distribution.ppf(np.array([[0.5], [bad]]))

    def test_array_queries_keep_shape_and_match_scalar_calls(self, distribution, floor):
        """A float gives a float; an n-d array gives an array of that shape
        whose entries match one scalar call each."""
        assert isinstance(distribution.ppf(0.3), float)
        assert isinstance(distribution.cdf(distribution.ppf(0.3)), float)
        ladder = np.array([0.0, 1e-6, 0.01, 0.25, 0.5, 0.75, 0.99, 0.999999, 1.0])
        finite = distribution.ppf(ladder[1:-1])
        points = np.concatenate([[-1.0, 0.0], finite, 2.0 * finite[-1:]])
        for queries, function in ((ladder, distribution.ppf), (points, distribution.cdf)):
            for shape in ((), (queries.size,), (3, queries.size // 3)):
                batch = queries[: int(np.prod(shape))].reshape(shape)
                answer = function(batch)
                assert np.shape(answer) == shape
                scalar = [function(float(value)) for value in batch.ravel()]
                np.testing.assert_allclose(
                    np.ravel(answer), scalar, rtol=1e-14, atol=1e-15
                )


@pytest.mark.parametrize("distribution,floor", _CONTINUOUS_CASES, ids=_CASE_IDS)
class TestMomentsMatchSampling:
    def test_mean_matches_samples(self, distribution, floor):
        samples = distribution.sample(400_000, np.random.default_rng(11))
        tolerance = 4.0 * math.sqrt(float(np.var(samples)) / samples.size)
        assert distribution.mean() == pytest.approx(
            float(samples.mean()), abs=max(tolerance, 1e-3)
        )

    def test_variance_matches_samples(self, distribution, floor):
        variance = distribution.variance()
        if math.isinf(variance):
            # Heavy tails (Pareto alpha <= 2, as in the LNKD-DISK write
            # mixture) have no finite variance; any sampled value is
            # consistent with the analytic answer.
            return
        samples = distribution.sample(400_000, np.random.default_rng(11))
        sampled = float(np.var(samples))
        assert variance == pytest.approx(sampled, rel=0.1, abs=1e-3)


class TestConstantDistribution:
    """ConstantLatency is all atom — the round trips degenerate but must hold."""

    def test_quantiles_collapse_to_the_value(self):
        dist = ConstantLatency(3.5)
        for q in (0.0, 0.5, 1.0):
            assert dist.ppf(q) == 3.5
        assert dist.cdf(3.5) == 1.0
        assert dist.cdf(3.4999) == 0.0
        assert dist.variance() == 0.0


class TestStandardNormalPpf:
    def test_matches_erfc_inverse_to_high_precision(self):
        for q in (1e-9, 1e-4, 0.02425, 0.3, 0.5, 0.84, 0.97575, 1 - 1e-4, 1 - 1e-9):
            x = standard_normal_ppf(q)
            recovered = 0.5 * math.erfc(-x / math.sqrt(2.0))
            assert recovered == pytest.approx(q, rel=1e-9, abs=1e-12)

    def test_endpoints_are_infinite(self):
        assert standard_normal_ppf(0.0) == -math.inf
        assert standard_normal_ppf(1.0) == math.inf

    def test_rejects_out_of_range(self):
        with pytest.raises(DistributionError):
            standard_normal_ppf(-0.01)


@dataclass(frozen=True, repr=False)
class _CountingQuantileTable(QuantileTableDistribution):
    """QuantileTableDistribution that records every sample() call."""

    calls: list = field(default_factory=list, compare=False)

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        self.calls.append(size)
        return super().sample(size, rng)


class TestQuantileTableClosedForms:
    """The PR-7 bugfixes: boundary/flat-segment CDF and closed-form variance."""

    def _flat_interior(self) -> QuantileTableDistribution:
        # Quantile segments: [0, .3] -> latencies 0..1, [.3, .7] -> flat at 1
        # (a 40% atom), [.7, 1] -> latencies 1..2.
        return QuantileTableDistribution(
            quantiles=np.array([0.0, 0.3, 0.7, 1.0]),
            latencies=np.array([0.0, 1.0, 1.0, 2.0]),
        )

    def test_cdf_ppf_round_trip_at_zero(self):
        dist = QuantileTableDistribution.from_percentiles(
            [(50.0, 4.0), (99.0, 25.0)], minimum=1.0, maximum=100.0
        )
        assert dist.cdf(dist.ppf(0.0)) >= 0.0
        assert dist.cdf(dist.ppf(0.0)) == pytest.approx(0.0)

    def test_boundary_atom_reports_its_full_mass(self):
        # minimum == p50 latency: the table starts with a flat segment, i.e.
        # an atom of mass 0.5 at the minimum.  cdf used to return 0.0 there.
        dist = QuantileTableDistribution.from_percentiles(
            [(50.0, 2.0), (99.0, 8.0)], minimum=2.0, maximum=20.0
        )
        assert dist.cdf(2.0) == pytest.approx(0.5)
        assert dist.cdf(dist.ppf(0.0)) == pytest.approx(0.5)
        assert dist.cdf(np.nextafter(2.0, 0.0)) == 0.0

    def test_flat_interior_segment_collapses_to_maximal_quantile(self):
        dist = self._flat_interior()
        # At the atom: the maximal quantile mapping to latency 1.
        assert dist.cdf(1.0) == pytest.approx(0.7)
        # Left of the atom the CDF follows the first segment only (u = .3 x),
        # which np.interp over duplicate knots would have smeared.
        assert dist.cdf(0.999) == pytest.approx(0.3 * 0.999)
        # Right of the atom it continues from the atom's full mass.
        assert dist.cdf(1.5) == pytest.approx(0.85)
        assert dist.cdf(np.nextafter(1.0, 2.0)) == pytest.approx(0.7)

    @given(x=st.floats(min_value=-0.5, max_value=2.5))
    @settings(max_examples=100, deadline=None)
    def test_cdf_is_monotone_and_bounded(self, x):
        dist = self._flat_interior()
        value = dist.cdf(x)
        assert 0.0 <= value <= 1.0
        assert dist.cdf(x + 0.125) >= value

    def test_cdf_matches_sampling_with_flat_segments(self):
        dist = self._flat_interior()
        samples = dist.sample(200_000, np.random.default_rng(9))
        for x in (0.25, 0.999, 1.0, 1.25, 1.75):
            empirical = float(np.mean(samples <= x))
            assert dist.cdf(x) == pytest.approx(empirical, abs=5e-3)

    def test_variance_closed_form_never_samples(self):
        dist = _CountingQuantileTable(
            quantiles=np.array([0.0, 0.5, 0.9, 1.0]),
            latencies=np.array([1.0, 3.0, 8.0, 40.0]),
        )
        dist.variance()
        dist.mean()
        dist.cdf(4.0)
        dist.ppf(0.25)
        assert dist.calls == []

    def test_variance_matches_uniform_closed_form(self):
        # Uniform on [0, 10] as a two-knot table: variance 100/12.
        dist = QuantileTableDistribution(
            quantiles=np.array([0.0, 1.0]), latencies=np.array([0.0, 10.0])
        )
        assert dist.variance() == pytest.approx(100.0 / 12.0)


@dataclass(frozen=True)
class _SampleOnly(LatencyDistribution):
    """A distribution with no closed forms: everything goes via the fallback."""

    calls: list = field(default_factory=list, compare=False)

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        self.calls.append(size)
        return rng.gamma(shape=2.0, scale=1.5, size=size)

    def mean(self) -> float:
        return 3.0


class TestSamplingFallbackCache:
    def test_fallback_draws_exactly_once_across_queries(self):
        dist = _SampleOnly()
        dist.variance()
        dist.cdf(2.0)
        dist.ppf(0.9)
        dist.ppf(np.linspace(0.1, 0.9, 17))
        dist.variance()
        dist.cdf(5.0)
        assert len(dist.calls) == 1
        assert dist.calls[0] == 200_000

    def test_fallback_answers_are_consistent(self):
        dist = _SampleOnly()
        # Gamma(2, 1.5): variance = 2 * 1.5^2 = 4.5.
        assert dist.variance() == pytest.approx(4.5, rel=0.05)
        assert dist.cdf(dist.ppf(0.75)) == pytest.approx(0.75, abs=5e-3)

    def test_cache_is_per_instance(self):
        first, second = _SampleOnly(), _SampleOnly()
        first.variance()
        second.variance()
        assert len(first.calls) == 1
        assert len(second.calls) == 1
