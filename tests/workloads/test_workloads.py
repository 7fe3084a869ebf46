"""Unit tests for key choosers, arrival processes, operation mixes, and YCSB workloads."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import WorkloadError
from repro.workloads.arrivals import BurstyArrivals, FixedIntervalArrivals, PoissonArrivals
from repro.workloads.keys import HotspotKeys, SingleKey, UniformKeys, ZipfianKeys, key_name
from repro.workloads.operations import (
    MixedWorkload,
    Operation,
    OperationKind,
    validation_workload,
)
from repro.workloads.ycsb import YCSB_MIXES, YCSBWorkload, ycsb_workload


class TestKeyChoosers:
    def test_key_name_format(self):
        assert key_name(7) == "key-00000007"
        with pytest.raises(WorkloadError):
            key_name(-1)

    def test_single_key_always_same(self, rng):
        chooser = SingleKey("hot-key")
        assert set(chooser.sample(100, rng)) == {"hot-key"}
        assert chooser.keyspace_size() == 1

    def test_uniform_covers_keyspace(self, rng):
        chooser = UniformKeys(keys=10)
        samples = chooser.sample(5_000, rng)
        assert len(set(samples)) == 10
        assert chooser.keyspace_size() == 10

    def test_uniform_rejects_empty_keyspace(self):
        with pytest.raises(WorkloadError):
            UniformKeys(keys=0)

    def test_zipfian_prefers_low_ranks(self, rng):
        chooser = ZipfianKeys(keys=100, theta=0.99)
        samples = chooser.sample(20_000, rng)
        hottest = samples.count(key_name(0))
        coldest = samples.count(key_name(99))
        assert hottest > coldest
        assert chooser.probability_of_rank(0) > chooser.probability_of_rank(99)

    def test_zipfian_probabilities_sum_to_one(self):
        chooser = ZipfianKeys(keys=50, theta=1.2)
        total = sum(chooser.probability_of_rank(rank) for rank in range(50))
        assert total == pytest.approx(1.0)

    def test_zipfian_validation(self):
        with pytest.raises(WorkloadError):
            ZipfianKeys(keys=0)
        with pytest.raises(WorkloadError):
            ZipfianKeys(keys=10, theta=0.0)
        with pytest.raises(WorkloadError):
            ZipfianKeys(keys=10).probability_of_rank(10)

    def test_hotspot_concentrates_traffic(self, rng):
        chooser = HotspotKeys(keys=100, hot_fraction=0.1, hot_probability=0.9)
        samples = chooser.sample(20_000, rng)
        hot_keys = {key_name(i) for i in range(chooser.hot_keys)}
        hot_share = sum(1 for key in samples if key in hot_keys) / len(samples)
        assert hot_share > 0.85

    def test_hotspot_validation(self):
        with pytest.raises(WorkloadError):
            HotspotKeys(keys=10, hot_fraction=0.0)
        with pytest.raises(WorkloadError):
            HotspotKeys(keys=10, hot_probability=1.5)


class TestArrivalProcesses:
    def test_poisson_rate_and_horizon(self, rng):
        arrivals = PoissonArrivals.per_second(1_000.0)  # 1 op per ms
        times = arrivals.times(5_000.0, rng)
        assert len(times) == pytest.approx(5_000, rel=0.1)
        assert np.all(times < 5_000.0)
        assert np.all(np.diff(times) > 0)
        assert arrivals.mean_rate_per_ms() == pytest.approx(1.0)

    def test_poisson_validation(self):
        with pytest.raises(WorkloadError):
            PoissonArrivals(rate_per_ms=0.0)
        with pytest.raises(WorkloadError):
            PoissonArrivals(rate_per_ms=1.0).times(-1.0, np.random.default_rng(0))

    def test_fixed_interval_deterministic(self, rng):
        arrivals = FixedIntervalArrivals(interval_ms=25.0)
        times = arrivals.times(100.0, rng)
        assert list(times) == [0.0, 25.0, 50.0, 75.0]
        assert arrivals.mean_rate_per_ms() == pytest.approx(0.04)

    def test_fixed_interval_start_offset(self, rng):
        times = FixedIntervalArrivals(interval_ms=10.0).times(30.0, rng, start_ms=5.0)
        assert list(times) == [5.0, 15.0, 25.0]

    def test_bursty_rate_is_duty_cycled(self, rng):
        arrivals = BurstyArrivals(burst_rate_per_ms=1.0, burst_ms=100.0, idle_ms=100.0)
        times = arrivals.times(20_000.0, rng)
        assert arrivals.mean_rate_per_ms() == pytest.approx(0.5)
        # Long-run count should be near rate * horizon (loose bound; bursts are random).
        assert len(times) == pytest.approx(10_000, rel=0.25)

    def test_bursty_validation(self):
        with pytest.raises(WorkloadError):
            BurstyArrivals(burst_rate_per_ms=0.0, burst_ms=1.0, idle_ms=1.0)
        with pytest.raises(WorkloadError):
            BurstyArrivals(burst_rate_per_ms=1.0, burst_ms=0.0, idle_ms=1.0)


class TestMixedWorkload:
    def test_read_fraction_respected(self, rng):
        workload = MixedWorkload(
            keys=UniformKeys(10),
            arrivals=FixedIntervalArrivals(interval_ms=1.0),
            read_fraction=0.7,
        )
        operations = workload.generate(horizon_ms=20_000.0, rng=rng)
        reads = sum(1 for op in operations if op.kind is OperationKind.READ)
        assert reads / len(operations) == pytest.approx(0.7, abs=0.03)

    def test_operations_sorted_by_time(self, rng):
        workload = MixedWorkload(
            keys=UniformKeys(5), arrivals=PoissonArrivals(rate_per_ms=0.5)
        )
        operations = workload.generate(horizon_ms=1_000.0, rng=rng)
        times = [op.start_ms for op in operations]
        assert times == sorted(times)

    def test_writes_have_values(self, rng):
        workload = MixedWorkload(
            keys=SingleKey(), arrivals=FixedIntervalArrivals(interval_ms=1.0), read_fraction=0.0
        )
        operations = workload.generate(horizon_ms=10.0, rng=rng)
        assert all(op.value is not None for op in operations)

    def test_invalid_read_fraction(self):
        with pytest.raises(WorkloadError):
            MixedWorkload(
                keys=SingleKey(),
                arrivals=FixedIntervalArrivals(interval_ms=1.0),
                read_fraction=1.5,
            )

    def test_operation_validation(self):
        with pytest.raises(WorkloadError):
            Operation(start_ms=-1.0, kind=OperationKind.READ, key="k")


class TestValidationWorkload:
    def test_structure_matches_parameters(self):
        operations = validation_workload(
            key="k", writes=3, write_interval_ms=100.0, read_offsets_ms=(1.0, 10.0)
        )
        writes = [op for op in operations if op.kind is OperationKind.WRITE]
        reads = [op for op in operations if op.kind is OperationKind.READ]
        assert len(writes) == 3 and len(reads) == 6
        assert [op.start_ms for op in writes] == [0.0, 100.0, 200.0]
        assert all(op.key == "k" for op in operations)

    def test_values_are_increasing_versions(self):
        operations = validation_workload(
            key="k", writes=2, write_interval_ms=50.0, read_offsets_ms=(5.0,)
        )
        writes = [op for op in operations if op.kind is OperationKind.WRITE]
        assert [op.value for op in writes] == ["version-0", "version-1"]

    def test_operations_come_out_in_sorted_order(self):
        # Unsorted, repeated and zero offsets: a read at offset 0 starts with
        # its write and sorts before it.
        operations = validation_workload(
            key="k",
            writes=20,
            write_interval_ms=100.0,
            read_offsets_ms=(20.0, 0.0, 5.0, 0.0, 99.5),
            start_ms=3.3,
        )
        assert operations == sorted(operations)
        assert operations[0].kind is OperationKind.READ
        assert operations[2].kind is OperationKind.WRITE

    def test_offsets_must_fit_within_interval(self):
        with pytest.raises(WorkloadError):
            validation_workload(
                key="k", writes=2, write_interval_ms=10.0, read_offsets_ms=(20.0,)
            )
        with pytest.raises(WorkloadError):
            validation_workload(key="k", writes=0, write_interval_ms=10.0, read_offsets_ms=(1.0,))
        with pytest.raises(WorkloadError):
            validation_workload(key="k", writes=2, write_interval_ms=10.0, read_offsets_ms=())


class TestYCSB:
    def test_known_mixes_sum_to_one(self):
        for name, (read, update, rmw) in YCSB_MIXES.items():
            assert read + update + rmw == pytest.approx(1.0), name

    def test_workload_a_mix(self, rng):
        workload = ycsb_workload("A", keyspace=100, rate_per_second=2_000.0)
        operations = workload.generate(horizon_ms=30_000.0, rng=rng)
        reads = sum(1 for op in operations if op.kind is OperationKind.READ)
        writes = sum(1 for op in operations if op.kind is OperationKind.WRITE)
        assert reads / (reads + writes) == pytest.approx(0.5, abs=0.05)

    def test_workload_c_is_read_only(self, rng):
        workload = ycsb_workload("C", keyspace=10, rate_per_second=1_000.0)
        operations = workload.generate(horizon_ms=5_000.0, rng=rng)
        assert all(op.kind is OperationKind.READ for op in operations)

    def test_workload_f_pairs_reads_with_writes(self, rng):
        workload = ycsb_workload("F", keyspace=10, rate_per_second=1_000.0)
        operations = workload.generate(horizon_ms=5_000.0, rng=rng)
        reads = sum(1 for op in operations if op.kind is OperationKind.READ)
        writes = sum(1 for op in operations if op.kind is OperationKind.WRITE)
        # Every RMW contributes one read and one write; plain reads add more reads.
        assert writes > 0
        assert reads >= writes

    def test_unknown_workload_rejected(self):
        with pytest.raises(WorkloadError):
            ycsb_workload("Z")

    def test_invalid_mix_rejected(self):
        with pytest.raises(WorkloadError):
            YCSBWorkload(
                name="bad",
                keys=UniformKeys(10),
                rate_per_second=100.0,
                read_fraction=0.5,
                update_fraction=0.1,
                rmw_fraction=0.1,
            )
        with pytest.raises(WorkloadError):
            YCSBWorkload(
                name="bad",
                keys=UniformKeys(10),
                rate_per_second=0.0,
                read_fraction=1.0,
                update_fraction=0.0,
                rmw_fraction=0.0,
            )
