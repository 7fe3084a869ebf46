"""Unit tests for the WARS Monte Carlo model (§4, §5.1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.quorum import ReplicaConfig
from repro.core.wars import WARSModel
from repro.exceptions import ConfigurationError
from repro.latency.distributions import ConstantLatency, ExponentialLatency
from repro.latency.production import WARSDistributions, wan, ymmr


class TestDeterministicScenarios:
    """With constant latencies the outcome of every trial is known exactly."""

    def test_commit_and_read_latency_with_constant_delays(self):
        distributions = WARSDistributions(
            w=ConstantLatency(4.0),
            a=ConstantLatency(1.0),
            r=ConstantLatency(2.0),
            s=ConstantLatency(3.0),
        )
        model = WARSModel(distributions, ReplicaConfig(3, 2, 2))
        result = model.sample(500, rng=0)
        assert np.allclose(result.commit_latencies_ms, 5.0)
        assert np.allclose(result.read_latencies_ms, 5.0)

    def test_constant_delays_are_always_consistent(self):
        # Write arrives at every replica at t=4 and commit happens at t=5, so
        # any read issued after commit observes the write.
        distributions = WARSDistributions(
            w=ConstantLatency(4.0),
            a=ConstantLatency(1.0),
            r=ConstantLatency(2.0),
            s=ConstantLatency(3.0),
        )
        result = WARSModel(distributions, ReplicaConfig(3, 1, 1)).sample(500, rng=0)
        assert result.consistency_probability(0.0) == 1.0

    def test_slow_write_fast_read_is_always_stale_at_t0(self):
        # Write messages take 100 ms to reach replicas but the ack of the
        # coordinator-local... no: with W=1 the commit happens after the first
        # (w + a) = 101 ms, at which point only that one replica has the write.
        # A read with R=1 may hit any replica; make reads so fast they always
        # arrive 1 ms after commit, i.e. 102 ms, after only 1 of 3 replicas has
        # the version.  The first responder is uniformly random, so consistency
        # at t=0 should be about 1/3... but with constant read delays all
        # replicas respond simultaneously and ties are broken by stable sort,
        # making the outcome deterministic per trial.  Instead check the t
        # threshold structure: consistency must reach 1.0 once t exceeds the
        # write delay spread.
        distributions = WARSDistributions(
            w=ExponentialLatency.from_mean(100.0),
            a=ConstantLatency(1.0),
            r=ConstantLatency(1.0),
            s=ConstantLatency(1.0),
        )
        result = WARSModel(distributions, ReplicaConfig(3, 1, 1)).sample(4_000, rng=1)
        assert result.consistency_probability(0.0) < 0.9
        assert result.consistency_probability(5_000.0) > 0.999


class TestStatisticalBehaviour:
    def test_strict_quorums_are_never_stale(self, exponential_wars, rng):
        for r, w in ((2, 2), (3, 1), (1, 3)):
            config = ReplicaConfig(3, r, w)
            result = WARSModel(exponential_wars, config).sample(20_000, rng)
            assert result.consistency_probability(0.0) == pytest.approx(1.0)
            assert result.t_visibility(0.999) == 0.0

    def test_consistency_increases_with_t(self, exponential_wars, rng):
        result = WARSModel(exponential_wars, ReplicaConfig(3, 1, 1)).sample(50_000, rng)
        curve = result.consistency_curve([0.0, 5.0, 20.0, 100.0])
        probabilities = [p for _, p in curve]
        assert probabilities == sorted(probabilities)

    def test_larger_write_quorum_improves_consistency(self, exponential_wars, rng):
        base = WARSModel(exponential_wars, ReplicaConfig(3, 1, 1)).sample(50_000, rng)
        stronger = WARSModel(exponential_wars, ReplicaConfig(3, 1, 2)).sample(50_000, rng)
        assert stronger.consistency_probability(0.0) > base.consistency_probability(0.0)

    def test_larger_read_quorum_improves_consistency(self, exponential_wars, rng):
        base = WARSModel(exponential_wars, ReplicaConfig(3, 1, 1)).sample(50_000, rng)
        stronger = WARSModel(exponential_wars, ReplicaConfig(3, 2, 1)).sample(50_000, rng)
        assert stronger.consistency_probability(0.0) > base.consistency_probability(0.0)

    def test_write_latency_grows_with_w(self, exponential_wars, rng):
        w1 = WARSModel(exponential_wars, ReplicaConfig(3, 1, 1)).sample(30_000, rng)
        w3 = WARSModel(exponential_wars, ReplicaConfig(3, 1, 3)).sample(30_000, rng)
        assert w3.write_latency_percentile(50.0) > w1.write_latency_percentile(50.0)

    def test_read_latency_grows_with_r(self, exponential_wars, rng):
        r1 = WARSModel(exponential_wars, ReplicaConfig(3, 1, 1)).sample(30_000, rng)
        r3 = WARSModel(exponential_wars, ReplicaConfig(3, 3, 1)).sample(30_000, rng)
        assert r3.read_latency_percentile(50.0) > r1.read_latency_percentile(50.0)

    def test_t_visibility_quantile_is_consistent_with_curve(self, exponential_wars, rng):
        result = WARSModel(exponential_wars, ReplicaConfig(3, 1, 1)).sample(50_000, rng)
        t_99 = result.t_visibility(0.99)
        assert result.consistency_probability(t_99) >= 0.99
        if t_99 > 0.5:
            assert result.consistency_probability(t_99 * 0.5) < 0.995

    def test_seed_reproducibility(self, exponential_wars):
        model = WARSModel(exponential_wars, ReplicaConfig(3, 1, 1))
        first = model.sample(10_000, rng=42)
        second = model.sample(10_000, rng=42)
        assert np.array_equal(first.staleness_thresholds_ms, second.staleness_thresholds_ms)

    def test_reported_trials(self, exponential_wars):
        result = WARSModel(exponential_wars, ReplicaConfig(3, 1, 1)).sample(1_234, rng=0)
        assert result.trials == 1_234


class TestBatchPercentiles:
    """The batch percentile methods equal one scalar call per entry, bit for bit."""

    PERCENTILES = [float(p) for p in range(1, 100)] + [0.0, 99.9, 100.0, 37.25]

    @pytest.mark.parametrize(
        "distributions, config",
        [(ymmr(), ReplicaConfig(3, 1, 1)), (wan(replica_count=5), ReplicaConfig(5, 2, 3))],
        ids=["ymmr-n3r1w1", "wan-n5r2w3"],
    )
    def test_read_percentiles_match_scalar_calls(self, distributions, config):
        result = WARSModel(distributions, config).sample(20_000, rng=3)
        batch = result.read_latency_percentiles(self.PERCENTILES)
        assert batch == [result.read_latency_percentile(p) for p in self.PERCENTILES]

    @pytest.mark.parametrize(
        "distributions, config",
        [(ymmr(), ReplicaConfig(3, 1, 1)), (wan(replica_count=5), ReplicaConfig(5, 2, 3))],
        ids=["ymmr-n3r1w1", "wan-n5r2w3"],
    )
    def test_write_percentiles_match_scalar_calls(self, distributions, config):
        result = WARSModel(distributions, config).sample(20_000, rng=3)
        batch = result.write_latency_percentiles(self.PERCENTILES)
        assert batch == [result.write_latency_percentile(p) for p in self.PERCENTILES]

    def test_any_sequence_in_python_floats_out(self, exponential_wars, partial_config):
        result = WARSModel(exponential_wars, partial_config).sample(5_000, rng=0)
        expected = [result.read_latency_percentile(p) for p in (10.0, 50.0, 90.0)]
        for percentiles in ((10, 50, 90), range(10, 100, 40), np.array([10.0, 50.0, 90.0])):
            batch = result.read_latency_percentiles(percentiles)
            assert batch == expected
            assert all(type(value) is float for value in batch)

    def test_empty_request_returns_empty_list(self, exponential_wars, partial_config):
        result = WARSModel(exponential_wars, partial_config).sample(1_000, rng=0)
        assert result.read_latency_percentiles([]) == []
        assert result.write_latency_percentiles([]) == []

    def test_out_of_range_percentile_rejected_like_scalar(self, exponential_wars, partial_config):
        result = WARSModel(exponential_wars, partial_config).sample(1_000, rng=0)
        with pytest.raises(ValueError):
            result.read_latency_percentile(101.0)
        with pytest.raises(ValueError):
            result.read_latency_percentiles([50.0, 101.0])
        with pytest.raises(ValueError):
            result.write_latency_percentiles([-1.0])


class TestValidationAndErrors:
    def test_invalid_trials_rejected(self, exponential_wars, partial_config):
        with pytest.raises(ConfigurationError):
            WARSModel(exponential_wars, partial_config).sample(0)

    def test_negative_time_rejected(self, exponential_wars, partial_config):
        result = WARSModel(exponential_wars, partial_config).sample(1_000, rng=0)
        with pytest.raises(ConfigurationError):
            result.consistency_probability(-1.0)
        with pytest.raises(ConfigurationError):
            result.consistency_curve([-1.0])

    def test_invalid_target_probability(self, exponential_wars, partial_config):
        result = WARSModel(exponential_wars, partial_config).sample(1_000, rng=0)
        with pytest.raises(ConfigurationError):
            result.t_visibility(0.0)
        with pytest.raises(ConfigurationError):
            result.t_visibility(1.5)

    def test_per_replica_distribution_requires_matching_n(self):
        distributions = wan(replica_count=3)
        with pytest.raises(Exception):
            WARSModel(distributions, ReplicaConfig(5, 1, 1)).sample(100, rng=0)

    def test_with_config_shares_distributions(self, exponential_wars, partial_config):
        model = WARSModel(exponential_wars, partial_config)
        other = model.with_config(ReplicaConfig(3, 2, 2))
        assert other.distributions is model.distributions
        assert other.config == ReplicaConfig(3, 2, 2)


class TestWanScenario:
    def test_wan_consistency_jumps_after_wan_delay(self, rng):
        result = WARSModel(wan(replica_count=3), ReplicaConfig(3, 1, 1)).sample(30_000, rng)
        early = result.consistency_probability(1.0)
        late = result.consistency_probability(200.0)
        assert early < 0.6
        assert late > 0.95

    def test_wan_write_latency_much_higher_for_w2(self, rng):
        distributions = wan(replica_count=3)
        w1 = WARSModel(distributions, ReplicaConfig(3, 1, 1)).sample(20_000, rng)
        w2 = WARSModel(distributions, ReplicaConfig(3, 1, 2)).sample(20_000, rng)
        # W=2 requires at least one remote (75 ms one-way) acknowledgement.
        assert w2.write_latency_percentile(50.0) > 100.0
        assert w1.write_latency_percentile(50.0) < 100.0
