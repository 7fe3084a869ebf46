"""Unit tests for the parametric latency distributions."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.exceptions import DistributionError
from repro.latency.distributions import (
    ConstantLatency,
    ExponentialLatency,
    LogNormalLatency,
    NormalLatency,
    ParetoLatency,
    ScaledLatency,
    ShiftedLatency,
    UniformLatency,
)
from repro.latency.composite import wan_replica_model
from repro.latency.empirical import EmpiricalDistribution, QuantileTableDistribution
from repro.latency.production import lnkd_disk


class TestExponentialLatency:
    def test_mean_matches_rate(self):
        assert ExponentialLatency(rate=0.1).mean() == pytest.approx(10.0)

    def test_from_mean_round_trips(self):
        assert ExponentialLatency.from_mean(5.0).mean() == pytest.approx(5.0)

    def test_sample_mean_converges(self, rng):
        samples = ExponentialLatency(rate=0.5).sample(200_000, rng)
        assert np.mean(samples) == pytest.approx(2.0, rel=0.02)

    def test_samples_non_negative(self, rng):
        assert np.all(ExponentialLatency(rate=2.0).sample(10_000, rng) >= 0)

    def test_cdf_and_ppf_are_inverses(self):
        dist = ExponentialLatency(rate=0.2)
        for q in (0.1, 0.5, 0.9, 0.999):
            assert dist.cdf(dist.ppf(q)) == pytest.approx(q, abs=1e-9)

    def test_cdf_at_zero_and_negative(self):
        dist = ExponentialLatency(rate=1.0)
        assert dist.cdf(0.0) == 0.0
        assert dist.cdf(-1.0) == 0.0

    def test_variance(self):
        assert ExponentialLatency(rate=0.5).variance() == pytest.approx(4.0)

    def test_invalid_rate_rejected(self):
        with pytest.raises(DistributionError):
            ExponentialLatency(rate=0.0)
        with pytest.raises(DistributionError):
            ExponentialLatency.from_mean(-1.0)

    def test_ppf_one_is_infinite(self):
        assert math.isinf(ExponentialLatency(rate=1.0).ppf(1.0))


class TestParetoLatency:
    def test_mean_formula(self):
        dist = ParetoLatency(xm=1.0, alpha=3.0)
        assert dist.mean() == pytest.approx(1.5)

    def test_mean_infinite_for_small_alpha(self):
        assert math.isinf(ParetoLatency(xm=1.0, alpha=1.0).mean())

    def test_variance_infinite_for_alpha_below_two(self):
        assert math.isinf(ParetoLatency(xm=1.0, alpha=1.5).variance())

    def test_samples_at_least_xm(self, rng):
        samples = ParetoLatency(xm=2.0, alpha=2.5).sample(50_000, rng)
        assert np.min(samples) >= 2.0

    def test_sample_mean_converges(self, rng):
        dist = ParetoLatency(xm=1.0, alpha=4.0)
        samples = dist.sample(400_000, rng)
        assert np.mean(samples) == pytest.approx(dist.mean(), rel=0.02)

    def test_cdf_ppf_round_trip(self):
        dist = ParetoLatency(xm=0.235, alpha=10.0)
        for q in (0.01, 0.5, 0.99):
            assert dist.cdf(dist.ppf(q)) == pytest.approx(q, abs=1e-9)

    def test_cdf_below_xm_is_zero(self):
        assert ParetoLatency(xm=3.0, alpha=2.0).cdf(2.9) == 0.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(DistributionError):
            ParetoLatency(xm=0.0, alpha=1.0)
        with pytest.raises(DistributionError):
            ParetoLatency(xm=1.0, alpha=-1.0)


class TestUniformLatency:
    def test_mean_and_variance(self):
        dist = UniformLatency(low=2.0, high=6.0)
        assert dist.mean() == pytest.approx(4.0)
        assert dist.variance() == pytest.approx(16.0 / 12.0)

    def test_samples_within_bounds(self, rng):
        samples = UniformLatency(low=1.0, high=3.0).sample(10_000, rng)
        assert np.min(samples) >= 1.0
        assert np.max(samples) <= 3.0

    def test_from_mean_and_halfwidth(self):
        dist = UniformLatency.from_mean_and_halfwidth(5.0, 1.5)
        assert dist.low == pytest.approx(3.5)
        assert dist.high == pytest.approx(6.5)

    def test_cdf_clamps(self):
        dist = UniformLatency(low=1.0, high=2.0)
        assert dist.cdf(0.5) == 0.0
        assert dist.cdf(5.0) == 1.0
        assert dist.cdf(1.5) == pytest.approx(0.5)

    def test_rejects_degenerate_interval(self):
        with pytest.raises(DistributionError):
            UniformLatency(low=2.0, high=2.0)
        with pytest.raises(DistributionError):
            UniformLatency(low=-1.0, high=2.0)


class TestNormalLatency:
    def test_samples_clipped_at_zero(self, rng):
        samples = NormalLatency(mu=0.5, sigma=2.0).sample(50_000, rng)
        assert np.min(samples) >= 0.0

    def test_mean_accounts_for_clipping(self, rng):
        dist = NormalLatency(mu=1.0, sigma=2.0)
        samples = dist.sample(400_000, rng)
        assert np.mean(samples) == pytest.approx(dist.mean(), rel=0.02)

    def test_zero_sigma_degenerates_to_constant(self, rng):
        dist = NormalLatency(mu=3.0, sigma=0.0)
        assert np.all(dist.sample(100, rng) == 3.0)
        assert dist.mean() == pytest.approx(3.0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(DistributionError):
            NormalLatency(mu=1.0, sigma=-0.1)


class TestLogNormalLatency:
    def test_from_mean_and_cv(self, rng):
        dist = LogNormalLatency.from_mean_and_cv(10.0, 0.5)
        assert dist.mean() == pytest.approx(10.0, rel=1e-9)
        samples = dist.sample(400_000, rng)
        assert np.mean(samples) == pytest.approx(10.0, rel=0.03)

    def test_variance_formula(self):
        dist = LogNormalLatency.from_mean_and_cv(4.0, 1.0)
        # CV of 1 means std == mean.
        assert math.sqrt(dist.variance()) == pytest.approx(4.0, rel=1e-9)

    def test_invalid_construction(self):
        with pytest.raises(DistributionError):
            LogNormalLatency.from_mean_and_cv(-1.0, 0.5)
        with pytest.raises(DistributionError):
            LogNormalLatency(mu=0.0, sigma=-1.0)


class TestConstantShiftedScaled:
    def test_constant_is_exact(self, rng):
        dist = ConstantLatency(value=7.5)
        assert np.all(dist.sample(100, rng) == 7.5)
        assert dist.mean() == 7.5
        assert dist.variance() == 0.0
        assert dist.ppf(0.3) == 7.5

    def test_constant_rejects_negative(self):
        with pytest.raises(DistributionError):
            ConstantLatency(value=-1.0)

    def test_shifted_moves_mean_not_variance(self):
        base = ExponentialLatency(rate=1.0)
        shifted = ShiftedLatency(base=base, offset=75.0)
        assert shifted.mean() == pytest.approx(76.0)
        assert shifted.variance() == pytest.approx(base.variance())
        assert shifted.ppf(0.5) == pytest.approx(base.ppf(0.5) + 75.0)

    def test_shifted_samples_exceed_offset(self, rng):
        shifted = ShiftedLatency(base=ExponentialLatency(rate=1.0), offset=10.0)
        assert np.min(shifted.sample(10_000, rng)) >= 10.0

    def test_scaled_scales_mean_and_variance(self):
        base = ExponentialLatency(rate=1.0)
        scaled = ScaledLatency(base=base, factor=3.0)
        assert scaled.mean() == pytest.approx(3.0)
        assert scaled.variance() == pytest.approx(9.0)

    def test_scaled_rejects_nonpositive_factor(self):
        with pytest.raises(DistributionError):
            ScaledLatency(base=ExponentialLatency(rate=1.0), factor=0.0)

    def test_shifted_rejects_negative_offset(self):
        with pytest.raises(DistributionError):
            ShiftedLatency(base=ExponentialLatency(rate=1.0), offset=-5.0)


class TestDescribe:
    def test_describe_reports_requested_percentiles(self, rng):
        summary = ExponentialLatency(rate=1.0).describe(percentiles=(50.0, 99.0), rng=rng)
        assert set(summary.percentiles) == {50.0, 99.0}
        assert summary.percentiles[99.0] > summary.percentiles[50.0]
        assert summary.mean == pytest.approx(1.0, rel=0.05)

    def test_describe_rows_include_mean(self):
        summary = ConstantLatency(value=2.0).describe(percentiles=(50.0,))
        rows = summary.as_rows()
        assert rows[0] == ("mean", 2.0)
        assert ("p50", 2.0) in rows

    def test_percentile_helper_uses_ppf(self):
        dist = ExponentialLatency(rate=1.0)
        assert dist.percentile(50.0) == pytest.approx(dist.ppf(0.5))



#: (label, constructor of one parameter, the non-finite values it accepted).
#: Negative infinity is listed only where no lower-bound check catches it.
_NON_FINITE_FAMILIES = (
    ("exponential-rate", lambda v: ExponentialLatency(rate=v), (math.nan, math.inf)),
    ("pareto-xm", lambda v: ParetoLatency(xm=v, alpha=1.5), (math.nan, math.inf)),
    ("pareto-alpha", lambda v: ParetoLatency(xm=1.0, alpha=v), (math.nan, math.inf)),
    ("uniform-low", lambda v: UniformLatency(low=v, high=1.0), (math.nan,)),
    ("uniform-high", lambda v: UniformLatency(low=0.0, high=v), (math.nan, math.inf)),
    ("normal-mu", lambda v: NormalLatency(mu=v, sigma=1.0), (math.nan, math.inf, -math.inf)),
    ("normal-sigma", lambda v: NormalLatency(mu=5.0, sigma=v), (math.nan, math.inf)),
    ("lognormal-mu", lambda v: LogNormalLatency(mu=v, sigma=1.0), (math.nan, math.inf, -math.inf)),
    ("lognormal-sigma", lambda v: LogNormalLatency(mu=0.0, sigma=v), (math.nan, math.inf)),
    ("constant", lambda v: ConstantLatency(value=v), (math.nan, math.inf)),
    (
        "shifted",
        lambda v: ShiftedLatency(base=ExponentialLatency(rate=1.0), offset=v),
        (math.nan, math.inf),
    ),
    (
        "scaled",
        lambda v: ScaledLatency(base=ExponentialLatency(rate=1.0), factor=v),
        (math.nan, math.inf),
    ),
    # NaN knots pass the table's ordering checks (every comparison is False)
    # and an infinite last latency passes them too.
    (
        "quantile-table-latency",
        lambda v: QuantileTableDistribution([0.0, 0.5, 1.0], [1.0, v, 3.0]),
        (math.nan,),
    ),
    (
        "quantile-table-quantile",
        lambda v: QuantileTableDistribution([0.0, v, 1.0], [1.0, 2.0, 3.0]),
        (math.nan,),
    ),
    (
        "quantile-table-maximum",
        lambda v: QuantileTableDistribution([0.0, 1.0], [1.0, v]),
        (math.inf,),
    ),
)


@pytest.mark.parametrize(
    "construct,value",
    [
        pytest.param(construct, value, id=f"{label}-{value}")
        for label, construct, values in _NON_FINITE_FAMILIES
        for value in values
    ],
)
def test_constructors_reject_non_finite_parameters(construct, value):
    """NaN slips past ``<= 0``-style checks and infinity past lower bounds;
    both must fail at construction, not as a NaN answer or a numpy error."""
    with pytest.raises(DistributionError, match="must be finite"):
        construct(value)


#: One instance of every distribution family; the WAN leg has no closed-form
#: cdf and answers through the sampling fallback.
_CDF_FAMILIES = (
    ("exponential", ExponentialLatency(rate=0.5)),
    ("uniform", UniformLatency(low=1.0, high=4.0)),
    ("pareto", ParetoLatency(xm=1.0, alpha=2.5)),
    ("normal", NormalLatency(mu=5.0, sigma=2.0)),
    ("lognormal", LogNormalLatency(mu=0.5, sigma=0.8)),
    ("constant", ConstantLatency(value=2.0)),
    ("shifted", ShiftedLatency(base=ExponentialLatency(rate=1.0), offset=2.0)),
    ("scaled", ScaledLatency(base=ParetoLatency(xm=1.0, alpha=3.0), factor=2.0)),
    ("empirical", EmpiricalDistribution(observations=np.array([1.0, 2.0, 2.0, 7.0]))),
    (
        "quantile-table",
        QuantileTableDistribution.from_percentiles([(50.0, 3.0)], minimum=1.0, maximum=9.0),
    ),
    ("mixture", lnkd_disk().w),
    ("sampling-fallback", wan_replica_model(ExponentialLatency(rate=1.0), 3)),
)


@pytest.mark.parametrize("shape", ["scalar", "array"])
@pytest.mark.parametrize(
    "distribution", [family for _, family in _CDF_FAMILIES], ids=[id_ for id_, _ in _CDF_FAMILIES]
)
def test_cdf_rejects_nan_and_answers_infinities(distribution, shape):
    """No latency is ``<= NaN``: ``cdf`` raises, as ``ppf`` does, where it used
    to answer nan, 0.0 or 1.0 by family.  ``±inf`` stay valid points."""
    if shape == "scalar":
        nan, infinities, expected = math.nan, (-math.inf, math.inf), (0.0, 1.0)
    else:
        nan = np.array([[1.0, 2.0], [math.nan, 3.0]])
        infinities = (np.array([-math.inf, 3.0, math.inf]),)
        expected = (np.array([0.0, float(distribution.cdf(3.0)), 1.0]),)
    with pytest.raises(DistributionError, match="NaN"):
        distribution.cdf(nan)
    for points, answer in zip(infinities, expected):
        np.testing.assert_allclose(distribution.cdf(points), answer, rtol=0.0, atol=1e-12)
