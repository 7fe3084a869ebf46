"""Unit tests for replica configuration value objects."""

from __future__ import annotations

import pytest

from repro.core.quorum import CASSANDRA_DEFAULT, RIAK_DEFAULT, ReplicaConfig, iter_configs
from repro.exceptions import ConfigurationError


class TestReplicaConfigValidation:
    def test_valid_configuration(self):
        config = ReplicaConfig(n=3, r=2, w=1)
        assert (config.n, config.r, config.w) == (3, 2, 1)

    @pytest.mark.parametrize("n,r,w", [(0, 1, 1), (3, 0, 1), (3, 1, 0), (3, 4, 1), (3, 1, 4)])
    def test_invalid_configurations_rejected(self, n, r, w):
        with pytest.raises(ConfigurationError):
            ReplicaConfig(n=n, r=r, w=w)

    @pytest.mark.parametrize(
        "n,r,w", [(3, 1, 1.5), (3, 1.5, 1), (3.5, 1, 1), (3.0, 1, 1), (3, 2.0, 1)]
    )
    def test_non_integer_sizes_rejected(self, n, r, w):
        """Fractional sizes used to pass the range checks and fail later with
        an IndexError in the batch reduction."""
        with pytest.raises(ConfigurationError, match="must be an integer"):
            ReplicaConfig(n=n, r=r, w=w)

    def test_is_hashable_and_comparable(self):
        assert ReplicaConfig(3, 1, 1) == ReplicaConfig(3, 1, 1)
        assert len({ReplicaConfig(3, 1, 1), ReplicaConfig(3, 1, 1)}) == 1
        assert ReplicaConfig(3, 1, 1) < ReplicaConfig(3, 1, 2)


class TestClassification:
    def test_strict_when_quorums_overlap(self):
        assert ReplicaConfig(3, 2, 2).is_strict
        assert not ReplicaConfig(3, 2, 2).is_partial

    def test_partial_when_no_overlap_guarantee(self):
        assert ReplicaConfig(3, 1, 1).is_partial
        assert ReplicaConfig(3, 1, 2).is_partial  # R + W = N is still partial

    def test_boundary_r_plus_w_equals_n_is_partial(self):
        assert ReplicaConfig(4, 2, 2).is_partial
        assert ReplicaConfig(4, 2, 3).is_strict

    def test_concurrent_write_tolerance(self):
        assert ReplicaConfig(3, 1, 2).tolerates_concurrent_writes
        assert not ReplicaConfig(3, 2, 1).tolerates_concurrent_writes

    def test_fault_tolerance_counts(self):
        config = ReplicaConfig(5, 2, 3)
        assert config.read_fault_tolerance == 3
        assert config.write_fault_tolerance == 2


class TestConstructors:
    def test_majority_quorum_is_strict(self):
        for n in range(1, 10):
            config = ReplicaConfig.majority(n)
            assert config.is_strict
            assert config.r == config.w == n // 2 + 1

    def test_one_one_default(self):
        config = ReplicaConfig.one_one()
        assert (config.n, config.r, config.w) == (3, 1, 1)

    def test_with_modifiers(self):
        config = ReplicaConfig(3, 1, 1)
        assert config.with_r(2).r == 2
        assert config.with_w(3).w == 3
        assert config.with_n(5).n == 5
        # Originals are unchanged (immutability).
        assert config.r == 1 and config.w == 1 and config.n == 3

    def test_label_and_str(self):
        assert ReplicaConfig(3, 2, 1).label() == "N=3 R=2 W=1"
        assert str(ReplicaConfig(3, 2, 1)) == "N=3 R=2 W=1"

    def test_paper_defaults(self):
        assert CASSANDRA_DEFAULT == ReplicaConfig(3, 1, 1)
        assert RIAK_DEFAULT == ReplicaConfig(3, 2, 2)


class TestIterConfigs:
    def test_counts_all_pairs(self):
        assert len(list(iter_configs(3))) == 9
        assert len(list(iter_configs(5))) == 25

    def test_partial_only_filter(self):
        partial = list(iter_configs(3, include_strict=False))
        assert all(config.is_partial for config in partial)
        # For N=3: (1,1), (1,2), (2,1) are the only partial pairs.
        assert len(partial) == 3

    def test_invalid_n_rejected(self):
        with pytest.raises(ConfigurationError):
            list(iter_configs(0))
