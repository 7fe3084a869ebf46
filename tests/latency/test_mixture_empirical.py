"""Unit tests for mixture, empirical, and quantile-table distributions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import DistributionError
from repro.latency.distributions import (
    ConstantLatency,
    ExponentialLatency,
    ParetoLatency,
    UniformLatency,
)
from repro.latency.empirical import EmpiricalDistribution, QuantileTableDistribution
from repro.latency.mixture import (
    MixtureComponent,
    MixtureDistribution,
    pareto_exponential_mixture,
)


class TestMixtureDistribution:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(DistributionError):
            MixtureDistribution.from_pairs(
                [(0.5, ConstantLatency(1.0)), (0.4, ConstantLatency(2.0))]
            )

    def test_empty_mixture_rejected(self):
        with pytest.raises(DistributionError):
            MixtureDistribution(components=())

    def test_component_weight_validated(self):
        with pytest.raises(DistributionError):
            MixtureComponent(weight=1.5, distribution=ConstantLatency(1.0))

    def test_mean_is_weighted_average(self):
        mixture = MixtureDistribution.from_pairs(
            [(0.25, ConstantLatency(4.0)), (0.75, ConstantLatency(8.0))]
        )
        assert mixture.mean() == pytest.approx(7.0)

    def test_variance_law_of_total_variance(self):
        mixture = MixtureDistribution.from_pairs(
            [(0.5, ConstantLatency(0.0)), (0.5, ConstantLatency(10.0))]
        )
        # Two point masses at 0 and 10: variance = 25.
        assert mixture.variance() == pytest.approx(25.0)

    def test_cdf_is_weighted_sum(self):
        mixture = MixtureDistribution.from_pairs(
            [(0.3, ConstantLatency(1.0)), (0.7, ConstantLatency(5.0))]
        )
        assert mixture.cdf(2.0) == pytest.approx(0.3)
        assert mixture.cdf(6.0) == pytest.approx(1.0)

    def test_sampling_respects_weights(self, rng):
        mixture = MixtureDistribution.from_pairs(
            [(0.9, ConstantLatency(1.0)), (0.1, ConstantLatency(100.0))]
        )
        samples = mixture.sample(100_000, rng)
        fraction_fast = np.mean(samples == 1.0)
        assert fraction_fast == pytest.approx(0.9, abs=0.01)

    def test_sample_mean_converges(self, rng):
        mixture = pareto_exponential_mixture(0.9, xm=1.0, alpha=5.0, exponential_rate=0.1)
        samples = mixture.sample(400_000, rng)
        assert np.mean(samples) == pytest.approx(mixture.mean(), rel=0.03)


def _choice_sample(mixture: MixtureDistribution, size: int, rng) -> np.ndarray:
    """The earlier mixture draw, kept as the oracle: ``Generator.choice``
    picks each sample's component, then one mask per component."""
    weights = np.array([component.weight for component in mixture.components])
    choices = rng.choice(len(mixture.components), size=size, p=weights)
    samples = np.empty(size, dtype=float)
    for index, component in enumerate(mixture.components):
        mask = choices == index
        count = int(np.sum(mask))
        if count:
            samples[mask] = component.distribution.sample(count, rng)
    return mixture.validate_samples(samples)


_STREAM_MIXTURES = (
    MixtureDistribution.from_pairs([(1.0, ParetoLatency(xm=1.0, alpha=3.0))]),
    pareto_exponential_mixture(0.9122, xm=0.235, alpha=10.0, exponential_rate=1.66),
    MixtureDistribution.from_pairs(
        [
            (0.0, ConstantLatency(50.0)),
            (0.5, UniformLatency(1.0, 2.0)),
            (0.25, ExponentialLatency(1.0)),
            (0.25 - 1e-10, ParetoLatency(xm=2.0, alpha=1.5)),
        ]
    ),
    MixtureDistribution.from_pairs(
        [
            (0.3, UniformLatency(1.0, 2.0)),
            (0.0, ExponentialLatency(1.0)),
            (0.4, ConstantLatency(3.0)),
            (0.3 - 1e-10, ParetoLatency(xm=5.0, alpha=2.0)),
        ]
    ),
)


@pytest.mark.parametrize(
    "mixture", _STREAM_MIXTURES, ids=["one", "two", "four-zero-first", "four-zero-inside"]
)
@pytest.mark.parametrize("size", [0, 1, 4_097, 10_000])
def test_sample_draws_the_stream_choice_draws(mixture, size):
    """One uniform per sample picks the component by ``choice``'s own rule, so
    the samples and the generator state after the draw are bit-identical."""
    for seed in range(40):
        actual_rng, expected_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        actual = mixture.sample(size, actual_rng)
        expected = _choice_sample(mixture, size, expected_rng)
        assert np.array_equal(actual, expected)
        assert actual_rng.random() == expected_rng.random()


class TestParetoExponentialMixture:
    def test_components_match_parameters(self):
        mixture = pareto_exponential_mixture(0.8, xm=2.0, alpha=3.0, exponential_rate=0.5)
        assert len(mixture.components) == 2
        pareto = mixture.components[0].distribution
        tail = mixture.components[1].distribution
        assert isinstance(pareto, ParetoLatency) and pareto.xm == 2.0 and pareto.alpha == 3.0
        assert isinstance(tail, ExponentialLatency) and tail.rate == 0.5
        assert mixture.components[0].weight == pytest.approx(0.8)

    def test_invalid_weight_rejected(self):
        with pytest.raises(DistributionError):
            pareto_exponential_mixture(1.2, xm=1.0, alpha=2.0, exponential_rate=1.0)


class TestEmpiricalDistribution:
    def test_statistics_match_observations(self):
        data = [1.0, 2.0, 3.0, 4.0]
        dist = EmpiricalDistribution.from_samples(data)
        assert dist.mean() == pytest.approx(2.5)
        assert dist.cdf(2.0) == pytest.approx(0.5)
        assert dist.ppf(1.0) == pytest.approx(4.0)
        assert len(dist) == 4

    def test_samples_drawn_from_observations(self, rng):
        dist = EmpiricalDistribution.from_samples([5.0, 7.0])
        samples = dist.sample(1_000, rng)
        assert set(np.unique(samples)) <= {5.0, 7.0}

    def test_rejects_empty_and_negative(self):
        with pytest.raises(DistributionError):
            EmpiricalDistribution.from_samples([])
        with pytest.raises(DistributionError):
            EmpiricalDistribution.from_samples([1.0, -2.0])

    def test_sampling_is_uniform_over_observations(self):
        # The rng.integers fast path must still resample uniformly with
        # replacement: each observation appears with probability 1/n.
        dist = EmpiricalDistribution.from_samples([1.0, 2.0, 3.0, 4.0])
        samples = dist.sample(100_000, np.random.default_rng(2))
        _, counts = np.unique(samples, return_counts=True)
        assert counts.size == 4
        assert np.all(np.abs(counts / samples.size - 0.25) < 0.01)

    def test_sampling_reproducible_for_equal_seeds(self):
        dist = EmpiricalDistribution.from_samples(
            np.random.default_rng(0).exponential(2.0, size=500)
        )
        first = dist.sample(1_000, np.random.default_rng(42))
        second = dist.sample(1_000, np.random.default_rng(42))
        np.testing.assert_array_equal(first, second)


class TestQuantileTableDistribution:
    def test_from_percentiles_builds_valid_table(self):
        dist = QuantileTableDistribution.from_percentiles(
            [(50.0, 4.0), (99.0, 25.0)], minimum=1.0, maximum=100.0
        )
        assert dist.ppf(0.0) == pytest.approx(1.0)
        assert dist.ppf(0.5) == pytest.approx(4.0)
        assert dist.ppf(1.0) == pytest.approx(100.0)

    def test_mean_is_quantile_integral(self):
        # Uniform on [0, 10] expressed as a quantile table: mean 5.
        dist = QuantileTableDistribution(
            quantiles=np.array([0.0, 1.0]), latencies=np.array([0.0, 10.0])
        )
        assert dist.mean() == pytest.approx(5.0)

    def test_cdf_inverts_ppf(self):
        dist = QuantileTableDistribution(
            quantiles=np.array([0.0, 0.5, 1.0]), latencies=np.array([0.0, 2.0, 10.0])
        )
        assert dist.cdf(2.0) == pytest.approx(0.5)
        assert dist.cdf(-1.0) == 0.0
        assert dist.cdf(20.0) == 1.0

    def test_sample_range_respects_table(self, rng):
        dist = QuantileTableDistribution(
            quantiles=np.array([0.0, 1.0]), latencies=np.array([2.0, 4.0])
        )
        samples = dist.sample(10_000, rng)
        assert np.min(samples) >= 2.0
        assert np.max(samples) <= 4.0

    def test_invalid_tables_rejected(self):
        with pytest.raises(DistributionError):
            QuantileTableDistribution(
                quantiles=np.array([0.0, 0.5]), latencies=np.array([1.0, 2.0])
            )
        with pytest.raises(DistributionError):
            QuantileTableDistribution(
                quantiles=np.array([0.0, 0.5, 1.0]), latencies=np.array([1.0, 0.5, 2.0])
            )
        with pytest.raises(DistributionError):
            QuantileTableDistribution(
                quantiles=np.array([0.0, 0.5, 0.5, 1.0]),
                latencies=np.array([1.0, 2.0, 3.0, 4.0]),
            )
