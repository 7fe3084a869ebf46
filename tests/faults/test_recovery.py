"""Tests for the adaptive-recovery closed loop (harvest → ingest → refit)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cluster.client import WorkloadRunner
from repro.cluster.store import DynamoCluster
from repro.core.quorum import ReplicaConfig
from repro.exceptions import ScenarioError
from repro.faults.recovery import (
    RECOVERY_TENANT,
    LegSample,
    harvest_wars_observations,
    run_adaptive_recovery,
)
from repro.latency.distributions import ConstantLatency
from repro.latency.production import WARSDistributions
from repro.scenarios.divergence import run_scenario
from repro.serving.service import PredictorService


def constant_wars() -> WARSDistributions:
    return WARSDistributions(
        w=ConstantLatency(4.0),
        a=ConstantLatency(1.0),
        r=ConstantLatency(2.0),
        s=ConstantLatency(3.0),
    )


@pytest.fixture(scope="module")
def trajectory():
    """One shared small closed-loop run (two blocks, two windows)."""
    return run_adaptive_recovery(
        "gray-failure", writes=400, windows=2, block_writes=200, rng=0
    )


class TestHarvest:
    def _trace(self):
        cluster = DynamoCluster(ReplicaConfig(3, 1, 1), constant_wars(), rng=0)
        cluster.write("k", "v1")
        cluster.simulator.run()
        cluster.read("k")
        cluster.simulator.run()
        return cluster.trace_log

    def test_constant_legs_are_recovered_exactly(self):
        samples = harvest_wars_observations(self._trace())
        by_leg = {}
        for sample in samples:
            by_leg.setdefault(sample.leg, []).append(sample)
        assert set(by_leg) == {"W", "A", "R", "S"}
        assert all(s.value_ms == pytest.approx(4.0) for s in by_leg["W"])
        assert all(s.value_ms == pytest.approx(1.0) for s in by_leg["A"])
        # R and S are split from the round trip: pairs must preserve the sum.
        for r, s in zip(by_leg["R"], by_leg["S"]):
            assert r.value_ms + s.value_ms == pytest.approx(5.0)
            assert 0.0 <= r.value_ms <= 5.0
            assert r.at_ms == s.at_ms  # both stamped at response arrival

    def test_offset_shifts_timestamps_not_values(self):
        trace = self._trace()
        rng_a, rng_b = np.random.default_rng(1), np.random.default_rng(1)
        plain = harvest_wars_observations(trace, 0.0, rng_a)
        shifted = harvest_wars_observations(trace, 1_000.0, rng_b)
        for a, b in zip(plain, shifted):
            assert b.at_ms == pytest.approx(a.at_ms + 1_000.0)
            assert b.value_ms == pytest.approx(a.value_ms)

    def test_split_stream_is_seeded(self):
        trace = self._trace()
        first = harvest_wars_observations(trace, 0.0, np.random.default_rng(5))
        second = harvest_wars_observations(trace, 0.0, np.random.default_rng(5))
        assert first == second


class TestClosedLoop:
    def test_trajectory_shape(self, trajectory):
        assert trajectory.scenario == "gray-failure"
        assert len(trajectory.windows) == 2
        assert trajectory.observations > 0
        assert trajectory.harvested_samples > 0
        assert trajectory.static_mean_abs_delta_p > 0.0
        indices = [window.index for window in trajectory.windows]
        assert indices == [1, 2]

    def test_every_window_refits_and_ingests(self, trajectory):
        fingerprints = {window.fingerprint for window in trajectory.windows}
        assert len(fingerprints) == 2  # each refit rebinds a new environment
        for window in trajectory.windows:
            assert sum(window.samples.values()) > 0
            assert set(window.samples) <= {"W", "A", "R", "S"}

    def test_all_samples_land_in_some_window(self, trajectory):
        total = sum(sum(w.samples.values()) for w in trajectory.windows)
        assert total == trajectory.harvested_samples

    def test_adaptive_model_beats_static_eventually(self, trajectory):
        final = trajectory.windows[-1]
        assert final.mean_abs_delta_p < trajectory.static_mean_abs_delta_p
        assert trajectory.final_recovered_fraction > 0.0

    def test_to_dict_is_json_safe(self, trajectory):
        payload = json.loads(json.dumps(trajectory.to_dict()))
        assert payload["scenario"] == "gray-failure"
        assert len(payload["windows"]) == 2
        assert payload["final_recovered_fraction"] == pytest.approx(
            trajectory.final_recovered_fraction
        )
        assert any("recovered" in line for line in trajectory.summary_lines())

    def test_measured_side_matches_run_scenario(self, trajectory):
        divergence = run_scenario(
            "gray-failure",
            writes=400,
            block_writes=200,
            prediction_trials=1_000,
            rng=0,
        )
        assert divergence.observations == trajectory.observations

    def test_runs_are_reproducible(self, trajectory):
        again = run_adaptive_recovery(
            "gray-failure", writes=400, windows=2, block_writes=200, rng=0
        )
        assert again.to_dict() == trajectory.to_dict()


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ScenarioError):
            run_adaptive_recovery("gray-failure", writes=5)
        with pytest.raises(ScenarioError):
            run_adaptive_recovery("gray-failure", writes=400, windows=0)
        with pytest.raises(ScenarioError):
            run_adaptive_recovery("gray-failure", writes=400, recovery_threshold=1.5)
        for block_writes in (0, 5, -5):
            with pytest.raises(ScenarioError):
                run_adaptive_recovery("gray-failure", writes=400, block_writes=block_writes)

    def test_rejects_service_with_conflicting_tenant(self):
        service = PredictorService()
        service.register_tenant(RECOVERY_TENANT, constant_wars())
        with pytest.raises(ScenarioError):
            run_adaptive_recovery(
                "gray-failure", writes=400, windows=2, service=service
            )

    def test_leg_sample_is_frozen(self):
        sample = LegSample("W", 1.0, 2.0)
        with pytest.raises(AttributeError):
            sample.leg = "A"
