"""Unit tests for fault plans (specs) and their per-cluster runtimes.

The load-bearing contract: modulation is pure arithmetic on already-drawn
delay values — a fault plan never consumes or reorders generator draws, so
modulated runs keep the exact draw accounting of unmodulated ones (the
property suite in tests/property/test_property_faults.py pins this across
random plans; here we pin the mechanics).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.client import WorkloadRunner
from repro.cluster.store import DynamoCluster
from repro.core.quorum import ReplicaConfig
from repro.exceptions import ConfigurationError
from repro.faults.plan import BurstProcess, FaultPlan, GrayFailure
from repro.faults.runtime import FaultRuntime
from repro.latency.distributions import ExponentialLatency
from repro.latency.production import WARSDistributions
from repro.workloads.operations import validation_workload


class _Clock:
    """Stand-in for the simulator clock: tests set ``now_ms`` directly."""

    def __init__(self, now_ms: float = 0.0) -> None:
        self.now_ms = now_ms


def benign() -> WARSDistributions:
    return WARSDistributions.write_specialised(
        write=ExponentialLatency.from_mean(20.0),
        other=ExponentialLatency.from_mean(10.0),
    )


class TestGrayFailureSpec:
    def test_rejects_bad_multipliers(self):
        with pytest.raises(ConfigurationError):
            GrayFailure(multiplier=0.0)
        with pytest.raises(ConfigurationError):
            GrayFailure(multiplier=float("inf"))
        with pytest.raises(ConfigurationError):
            GrayFailure(tail_threshold_ms=10.0, tail_multiplier=-1.0)

    def test_rejects_bad_schedules(self):
        with pytest.raises(ConfigurationError):
            GrayFailure(start_ms=-1.0)
        with pytest.raises(ConfigurationError):
            GrayFailure(period_ms=100.0)  # periodic needs a finite duration
        with pytest.raises(ConfigurationError):
            GrayFailure(duration_ms=200.0, period_ms=100.0)  # period < duration

    def test_open_ended_window(self):
        gray = GrayFailure(start_ms=100.0)
        assert not gray.active_at(99.9)
        assert gray.active_at(100.0)
        assert gray.active_at(1e9)

    def test_bounded_window(self):
        gray = GrayFailure(start_ms=100.0, duration_ms=50.0)
        assert gray.active_at(100.0)
        assert gray.active_at(149.9)
        assert not gray.active_at(150.0)

    def test_periodic_window_repeats(self):
        gray = GrayFailure(start_ms=100.0, duration_ms=50.0, period_ms=200.0)
        for base in (100.0, 300.0, 500.0):
            assert gray.active_at(base + 10.0)
            assert not gray.active_at(base + 60.0)


class TestBurstProcessSpec:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            BurstProcess(on_multiplier=0.0)
        with pytest.raises(ConfigurationError):
            BurstProcess(mean_on_ms=0.0)
        with pytest.raises(ConfigurationError):
            BurstProcess(mean_off_ms=-1.0)


class TestFaultPlanSpec:
    def test_rejects_empty_plan(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(name="empty")

    def test_describe_mentions_components(self):
        plan = FaultPlan(
            name="both",
            gray_failures=(GrayFailure(multiplier=2.0),),
            bursts=(BurstProcess(),),
        )
        text = plan.describe()
        assert "gray" in text and "burst" in text


class TestFaultRuntime:
    def test_gray_multiplier_applies_only_inside_window(self):
        plan = FaultPlan(
            name="g",
            gray_failures=(GrayFailure(multiplier=3.0, start_ms=100.0, duration_ms=50.0),),
        )
        clock = _Clock(0.0)
        runtime = FaultRuntime(plan, clock)
        assert runtime.modulate("W", "node-1", 10.0) == 10.0
        clock.now_ms = 120.0
        assert runtime.modulate("W", "node-1", 10.0) == 30.0
        clock.now_ms = 200.0
        assert runtime.modulate("W", "node-1", 10.0) == 10.0

    def test_gray_targets_only_listed_nodes_and_legs(self):
        plan = FaultPlan(
            name="g",
            gray_failures=(
                GrayFailure(nodes=("node-2",), legs=("W",), multiplier=4.0),
            ),
        )
        runtime = FaultRuntime(plan, _Clock(10.0))
        assert runtime.modulate("W", "node-2", 5.0) == 20.0
        assert runtime.modulate("W", "node-1", 5.0) == 5.0
        assert runtime.modulate("A", "node-2", 5.0) == 5.0

    def test_tail_inflation_uses_pre_multiplied_value(self):
        plan = FaultPlan(
            name="g",
            gray_failures=(
                GrayFailure(multiplier=2.0, tail_threshold_ms=40.0, tail_multiplier=3.0),
            ),
        )
        runtime = FaultRuntime(plan, _Clock(0.0))
        # Below the threshold: only the base multiplier.
        assert runtime.modulate("W", "n", 30.0) == 60.0
        # Above it: both multipliers compound.
        assert runtime.modulate("W", "n", 50.0) == 300.0

    def test_burst_epochs_are_seeded_and_deterministic(self):
        plan = FaultPlan(name="b", bursts=(BurstProcess(seed=7, on_multiplier=5.0),))
        probes = [float(t) for t in range(0, 60_000, 500)]
        runs = []
        for _ in range(2):
            clock = _Clock(0.0)
            runtime = FaultRuntime(plan, clock)
            values = []
            for t in probes:
                clock.now_ms = t
                values.append(runtime.modulate("W", "n", 1.0))
            runs.append(values)
        assert runs[0] == runs[1]
        assert set(runs[0]) == {1.0, 5.0}  # both epochs visited

    def test_modulated_draws_counter(self):
        plan = FaultPlan(name="g", gray_failures=(GrayFailure(multiplier=2.0),))
        runtime = FaultRuntime(plan, _Clock(0.0))
        runtime.modulate("W", "n", 1.0)
        runtime.modulate("A", "n", 1.0)
        assert runtime.modulated_draws == 2


class TestClusterIntegration:
    PLAN = FaultPlan(
        name="g", gray_failures=(GrayFailure(multiplier=4.0, start_ms=50.0),)
    )

    def _run(self, fault_plan, seed=0, writes=40):
        cluster = DynamoCluster(
            ReplicaConfig(3, 1, 1),
            benign(),
            rng=np.random.default_rng(seed),
            fault_plan=fault_plan,
        )
        operations = validation_workload(
            key="k", writes=writes, write_interval_ms=25.0, read_offsets_ms=(1.0, 5.0)
        )
        WorkloadRunner(cluster).run(operations)
        return cluster

    def test_fault_plan_changes_delays_but_not_draw_accounting(self):
        base = self._run(None)
        modulated = self._run(self.PLAN)
        assert modulated.network.draws_consumed == base.network.draws_consumed
        assert modulated.network.draw_refills == base.network.draw_refills
        assert modulated.network.fault_runtime.modulated_draws > 0
        base_commits = [w.committed_ms for w in base.trace_log.writes]
        mod_commits = [w.committed_ms for w in modulated.trace_log.writes]
        assert base_commits != mod_commits

    def test_fault_plan_runs_are_deterministic(self):
        first = self._run(self.PLAN, seed=3)
        second = self._run(self.PLAN, seed=3)
        assert [w.committed_ms for w in first.trace_log.writes] == [
            w.committed_ms for w in second.trace_log.writes
        ]

    def test_network_requires_clock_with_plan(self):
        from repro.cluster.network import Network

        with pytest.raises(ConfigurationError):
            Network(
                distributions=benign(),
                rng=np.random.default_rng(0),
                fault_plan=self.PLAN,
            )
